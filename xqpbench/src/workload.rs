//! Seeded inputs: the XMark document and the request streams of each
//! workload. The program under test only ever sees what this module
//! generates; the seed given on the command line fixes all of it.

use xqp_gen::{gen_xmark, Prng, XmarkConfig};

/// XMark scale of every workload's document (about 48,600 stored nodes).
pub const SCALE: f64 = 1.0;

/// Name the document is served under.
pub const DOC: &str = "xmark";

/// Element the update writer inserts and deletes. No read matches it, so
/// reads must equal the reference at every generation.
pub const WRITE_FRAGMENT: &str = "<bench-marker><pad>x</pad></bench-marker>";
pub const MARKER_PATH: &str = "/site/people/person/bench-marker";

/// WAL records between compactions on the update workload. A round
/// writes two records; at about 200 writes per second a 25 s run spans
/// dozens of compactions, where the store default of 1,024 gives a few.
pub const COMPACTION_THRESHOLD: u64 = 128;

/// Share of the paged store the buffer pool holds.
pub const POOL_SHARE: u64 = 10;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Lookup,
    Analytics,
    Update,
    Paged,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Lookup, Kind::Analytics, Kind::Update, Kind::Paged];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Lookup => "lookup",
            Kind::Analytics => "analytics",
            Kind::Update => "update",
            Kind::Paged => "paged",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Reader sessions (`update` adds its writer). Measured on a 2-core
    /// host over ten seeds:
    /// - `analytics` runs two, as planned: its `qps`, `p99_ms` and
    ///   `geomean_ms` spread 2.5-5.6% over ten seeds.
    /// - `paged` runs one. With two, the pin paths contend so much that
    ///   whole runs land in a fast or a slow mode (33-40% spread, against
    ///   4%), and two readers finish fewer reads per second than one.
    /// - `lookup` runs one. With two, the concurrent per-request stream
    ///   builds put some seeds in a slow mode (geomean 6.9 ms against
    ///   4.9 ms).
    pub fn read_sessions(self) -> usize {
        match self {
            Kind::Analytics => 2,
            Kind::Lookup | Kind::Update | Kind::Paged => 1,
        }
    }
}

/// One distinct request text and the template it instantiates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub template: usize,
    pub text: String,
}

/// A generated workload: the document, every distinct request it can
/// send, and the rule by which sessions draw from them.
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub xml: String,
    pub templates: Vec<&'static str>,
    /// Every distinct read request; streams index into this.
    pub universe: Vec<Request>,
    /// `by_template[t]` lists the universe indices of template `t`.
    by_template: Vec<Vec<usize>>,
    /// Relative draw weight of each template (update and paged).
    weights: Vec<u32>,
    people: usize,
}

const CONTINENTS: [&str; 6] = ["africa", "asia", "australia", "europe", "namerica", "samerica"];

/// The T18 joins, the T21 folds over item⋈category and `//keyword`, and
/// two large path results.
const ANALYTICS: [(&str, &str); 8] = [
    (
        "join_item_category",
        "for $i in doc()//item for $c in doc()//category \
         where $i/incategory/@category = $c/@id return <hit>{$i/name}</hit>",
    ),
    (
        "join_person_interest",
        "for $p in doc()//person for $c in doc()//category \
         where $p/profile/interest/@category = $c/@id return <match>{$p/name}</match>",
    ),
    (
        "join_auction_item_seller",
        "for $a in doc()//open_auction for $i in doc()//item for $p in doc()//person \
         where $a/itemref/@item = $i/@id and $a/seller/@person = $p/@id \
         return <deal>{$i/name}{$p/name}</deal>",
    ),
    (
        "exists_join",
        "exists(for $i in doc()//item for $c in doc()//category \
         where $i/incategory/@category = $c/@id return $i)",
    ),
    (
        "min_join",
        "min(for $i in doc()//item for $c in doc()//category \
         where $i/incategory/@category = $c/@id return 1 + count($i/name))",
    ),
    ("sum_keyword", "sum(for $k in doc()//keyword return count($k))"),
    ("keyword", "//keyword"),
    ("item_mail_keyword", "//item[mailbox/mail]//keyword"),
];

fn x1(c: &str) -> String {
    format!("/site/regions/{c}/item/name")
}
fn x3(age: u32) -> String {
    format!("/site/people/person[profile/age > {age}]/name")
}
fn x4(inc: u32) -> String {
    format!("//open_auction[bidder/increase > {inc}]/reserve")
}
fn x5(price: u32) -> String {
    format!("/site/closed_auctions/closed_auction[price > {price}]/date")
}

const AGES: [u32; 12] = [20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 75];
const INCREASES: [u32; 9] = [5, 10, 15, 20, 25, 30, 35, 40, 45];
const PRICES: [u32; 9] = [50, 100, 150, 200, 250, 300, 350, 400, 450];

impl Workload {
    /// Generate `kind`'s document and requests from `seed`.
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        Self::generate_at(kind, seed, SCALE)
    }

    pub fn generate_at(kind: Kind, seed: u64, scale: f64) -> Workload {
        let cfg = XmarkConfig::scale(scale).with_seed(seed);
        let xml = xqp_xml::serialize(&gen_xmark(&cfg));
        let mut templates = Vec::new();
        let mut universe = Vec::new();
        let mut add =
            |templates: &mut Vec<&'static str>, name: &'static str, texts: Vec<String>| {
                let t = templates.len();
                templates.push(name);
                universe.extend(texts.into_iter().map(|text| Request { template: t, text }));
            };
        match kind {
            Kind::Lookup => {
                let lookup = |kind: &str, n: usize, ret: &str| -> Vec<String> {
                    (0..n)
                        .map(|i| {
                            format!(
                                "for $x in doc()//{kind} where $x/@id = \"{kind}{i}\" return $x/{ret}"
                            )
                        })
                        .collect()
                };
                add(&mut templates, "person", lookup("person", cfg.people, "name"));
                let items = cfg.items_per_region * CONTINENTS.len();
                add(&mut templates, "item", lookup("item", items, "name"));
                add(
                    &mut templates,
                    "open_auction",
                    lookup("open_auction", cfg.open_auctions, "current"),
                );
            }
            Kind::Analytics => {
                for (name, q) in ANALYTICS {
                    add(&mut templates, name, vec![q.to_string()]);
                }
            }
            Kind::Update => {
                // The X1/X3/X5 paths, each returning whole subtrees instead
                // of one leaf. Reads of one leaf took 0.2-0.6 ms, mostly
                // the loopback round trip and thread wake-ups, and their
                // qps followed the host's scheduling: a busy-loop on the
                // other core raised it 20-30%, and ten seeds spread it
                // 0.20-0.26. These reads take about 1 ms and moved 5%
                // under the same busy-loop. No result holds a person, so
                // the writer's marker never shows in a read.
                let items = CONTINENTS.iter().map(|c| format!("/site/regions/{c}/item"));
                add(&mut templates, "X1_items", items.collect());
                let profiles =
                    AGES.iter().map(|a| format!("/site/people/person[profile/age > {a}]/profile"));
                add(&mut templates, "X3_profiles", profiles.collect());
                let auctions = PRICES
                    .iter()
                    .map(|p| format!("/site/closed_auctions/closed_auction[price > {p}]"));
                add(&mut templates, "X5_auctions", auctions.collect());
            }
            Kind::Paged => {
                add(&mut templates, "X1", CONTINENTS.iter().map(|c| x1(c)).collect());
                add(&mut templates, "X2", vec!["//keyword".to_string()]);
                add(&mut templates, "X3", AGES.iter().map(|&a| x3(a)).collect());
                add(&mut templates, "X4", INCREASES.iter().map(|&i| x4(i)).collect());
                add(&mut templates, "X5", PRICES.iter().map(|&p| x5(p)).collect());
                add(&mut templates, "X6", vec!["//item[mailbox/mail]//keyword".to_string()]);
            }
        }
        let mut by_template = vec![Vec::new(); templates.len()];
        for (i, r) in universe.iter().enumerate() {
            by_template[r.template].push(i);
        }
        // On paged, from its one reader session, the descendant-rooted
        // X2/X4/X6 cost 20-40 ms each through the pool, the child-only
        // X1/X3/X5 1-4 ms. Drawn 30:1, the descendant queries are 3% of
        // requests and about 30% of the busy time (seed 1: 75 of 2,076
        // reads, 1.9 of 6 s): p99 then falls inside their population
        // instead of at its extreme tail, p50 inside X5's, and a run
        // collects thousands of reads. geomean_ms weighs all six
        // templates equally.
        let weights = templates
            .iter()
            .map(|t| match (kind, *t) {
                (Kind::Paged, "X1" | "X3" | "X5") => 30,
                _ => 1,
            })
            .collect();
        Workload { kind, seed, xml, templates, universe, by_template, weights, people: cfg.people }
    }

    /// The request stream of read session `session`: an endless sequence
    /// of universe indices, fixed by the seed.
    pub fn stream(&self, session: usize) -> Stream<'_> {
        let salt = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(session as u64 + 1);
        Stream { wl: self, rng: Prng::seed_from_u64(self.seed ^ salt), session, n: 0 }
    }

    /// The first request of each template, in template order: the warm-up
    /// pass of set-up.
    pub fn warmup(&self) -> Vec<usize> {
        self.by_template.iter().map(|ids| ids[0]).collect()
    }

    /// Insert target of writer round `round`: one person, drawn from the
    /// seed.
    pub fn write_target(&self, round: u64) -> String {
        let mut rng =
            Prng::seed_from_u64(self.seed ^ 0x5bd1_e995 ^ round.wrapping_mul(0x2545_f491));
        format!("/site/people/person[{}]", rng.gen_range(1..self.people + 1))
    }
}

/// One session's request stream (see [`Workload::stream`]).
pub struct Stream<'a> {
    wl: &'a Workload,
    rng: Prng,
    session: usize,
    n: usize,
}

impl Iterator for Stream<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let wl = self.wl;
        let n = self.n;
        self.n += 1;
        Some(match wl.kind {
            // Ids uniform over every person, item and open auction.
            Kind::Lookup => self.rng.gen_range(0..wl.universe.len()),
            // Round-robin; the sessions start half the cycle apart.
            Kind::Analytics => {
                let len = wl.universe.len();
                (n + self.session * len / 2) % len
            }
            // Template by weight, then its parameter uniform.
            Kind::Update | Kind::Paged => {
                let total: u32 = wl.weights.iter().sum();
                let mut r = self.rng.gen_range(0..total);
                let mut t = 0;
                while r >= wl.weights[t] {
                    r -= wl.weights[t];
                    t += 1;
                }
                *self.rng.choose(&wl.by_template[t])
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_SCALE: f64 = 0.05;

    fn texts(wl: &Workload, session: usize, n: usize) -> Vec<String> {
        wl.stream(session).take(n).map(|i| wl.universe[i].text.clone()).collect()
    }

    #[test]
    fn same_seed_same_document_and_requests() {
        for kind in Kind::ALL {
            let a = Workload::generate_at(kind, 7, TEST_SCALE);
            let b = Workload::generate_at(kind, 7, TEST_SCALE);
            assert_eq!(a.xml, b.xml, "{}", kind.name());
            assert_eq!(a.universe, b.universe);
            for s in 0..2 {
                assert_eq!(texts(&a, s, 200), texts(&b, s, 200), "{}", kind.name());
            }
            assert_eq!(a.write_target(3), b.write_target(3));
        }
    }

    #[test]
    fn different_seed_different_ids_same_template_mix() {
        for kind in Kind::ALL {
            let a = Workload::generate_at(kind, 7, TEST_SCALE);
            let b = Workload::generate_at(kind, 8, TEST_SCALE);
            assert_ne!(a.xml, b.xml, "{}", kind.name());
            assert_eq!(a.templates, b.templates);
            assert_eq!(a.universe, b.universe, "the request texts do not depend on the seed");
            let mix = |wl: &Workload| {
                let mut seen = vec![0usize; wl.templates.len()];
                for i in wl.stream(0).take(2000) {
                    seen[wl.universe[i].template] += 1;
                }
                seen
            };
            let (ma, mb) = (mix(&a), mix(&b));
            for (t, (&x, &y)) in ma.iter().zip(&mb).enumerate() {
                assert!(x > 0 && y > 0, "{} template {t} never drawn", kind.name());
                let share = |c: usize| c as f64 / 2000.0;
                assert!(
                    (share(x) - share(y)).abs() < 0.06,
                    "{} template {t} mix moved",
                    kind.name()
                );
            }
            if kind != Kind::Analytics {
                assert_ne!(texts(&a, 0, 50), texts(&b, 0, 50), "{}", kind.name());
            }
        }
        let a = Workload::generate_at(Kind::Update, 7, TEST_SCALE);
        let b = Workload::generate_at(Kind::Update, 8, TEST_SCALE);
        assert_ne!(
            (0..20).map(|r| a.write_target(r)).collect::<Vec<_>>(),
            (0..20).map(|r| b.write_target(r)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn lookup_covers_every_id_once() {
        let wl = Workload::generate_at(Kind::Lookup, 1, 1.0);
        assert_eq!(wl.universe.len(), 1460);
        assert_eq!(wl.templates, ["person", "item", "open_auction"]);
    }

    #[test]
    fn analytics_sessions_round_robin() {
        let wl = Workload::generate_at(Kind::Analytics, 1, TEST_SCALE);
        let s0: Vec<usize> = wl.stream(0).take(16).collect();
        assert_eq!(s0, [0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(wl.stream(1).next(), Some(4));
    }
}
