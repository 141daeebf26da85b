//! Preparation, set-up and the closed loop through `xqp_serve::Server`.
//!
//! Preparation (reference answers, store creation) is not set-up. Set-up
//! runs from "generated XML in hand" to "the server has answered one
//! warm-up pass over the workload's distinct templates".

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use xqp::{Database, Strategy};
use xqp_exec::Executor;
use xqp_serve::{Client, ServeError, Server, ServerConfig};
use xqp_storage::persist::{FRAME_BYTES, PAGED_FILE};
use xqp_storage::SuccinctDoc;

use crate::workload::{
    Kind, Request, Workload, COMPACTION_THRESHOLD, DOC, MARKER_PATH, POOL_SHARE, WRITE_FRAGMENT,
};

/// Flush policy of every durable store the benchmark opens: the store
/// default, one fsync per group commit.
pub const FLUSH_POLICY: &str = "fsync-per-commit";

/// A workload with everything computed before set-up.
pub struct Prepared {
    pub wl: Workload,
    /// Reference answer of every universe request, computed in-process
    /// under NoK and confirmed byte-for-byte under TwigStack and
    /// BinaryJoin.
    pub refs: Vec<String>,
    pub node_count: usize,
    /// Durable resident store (update's reopen source).
    pub store: PathBuf,
    /// Durable paged store (paged's reopen source and the ledger's
    /// buffer-pool copy).
    pub paged_store: PathBuf,
    pub doc_pages: u64,
    pub pool_pages: usize,
}

/// The paper's baselines: the reference is NoK, and the two join-based
/// strategies must produce the same bytes.
const REFERENCE_STRATEGIES: [Strategy; 3] =
    [Strategy::NoK, Strategy::TwigStack, Strategy::BinaryJoin];

/// Reference answers for every universe request, split over the host's
/// cores (NoK answers a descendant-rooted lookup in about 5 ms).
fn references(wl: &Workload, sdoc: &SuccinctDoc) -> Result<Vec<String>, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = wl.universe.len().div_ceil(threads);
    let parts: Vec<Result<Vec<String>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = wl
            .universe
            .chunks(chunk)
            .map(|reqs| s.spawn(move || reference_chunk(reqs, sdoc)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("reference thread panicked")).collect()
    });
    let mut refs = Vec::with_capacity(wl.universe.len());
    for part in parts {
        refs.extend(part?);
    }
    Ok(refs)
}

fn reference_chunk(reqs: &[Request], sdoc: &SuccinctDoc) -> Result<Vec<String>, String> {
    let execs: Vec<Executor<'_>> =
        REFERENCE_STRATEGIES.iter().map(|&s| Executor::new(sdoc).with_strategy(s)).collect();
    let mut refs = Vec::with_capacity(reqs.len());
    for req in reqs {
        let mut answers = execs.iter().map(|ex| ex.query(&req.text));
        let want = answers.next().expect("NoK leads").map_err(|e| e.to_string())?;
        for (s, got) in REFERENCE_STRATEGIES[1..].iter().zip(answers) {
            if got.map_err(|e| e.to_string())? != want {
                return Err(format!("{} disagrees with NoK on `{}`", s.name(), req.text));
            }
        }
        refs.push(want);
    }
    Ok(refs)
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub fn prepare(wl: Workload, work: &Path) -> Result<Prepared, String> {
    let sdoc = SuccinctDoc::parse(&wl.xml).map_err(err)?;
    let refs = references(&wl, &sdoc)?;
    let store = work.join("store");
    let paged_store = work.join("paged");
    let mut db = Database::new();
    db.load_str(DOC, &wl.xml).map_err(err)?;
    db.persist_to(&store).map_err(err)?;
    let mut db = Database::new();
    db.load_str(DOC, &wl.xml).map_err(err)?;
    db.set_buffer_pool(2);
    db.persist_to(&paged_store).map_err(err)?;
    drop(db);
    let paged_file = paged_store.join("d000").join(PAGED_FILE);
    let bytes =
        std::fs::metadata(&paged_file).map_err(|e| format!("{}: {e}", paged_file.display()))?;
    let doc_pages = bytes.len() / FRAME_BYTES as u64;
    let pool_pages = (doc_pages / POOL_SHARE).max(2) as usize;
    Ok(Prepared {
        wl,
        refs,
        node_count: sdoc.node_count(),
        store,
        paged_store,
        doc_pages,
        pool_pages,
    })
}

/// The database the workload serves, as set-up builds it.
pub fn open_db(prep: &Prepared) -> Result<Database, String> {
    Ok(match prep.wl.kind {
        Kind::Lookup | Kind::Analytics => {
            let db = Database::new();
            db.load_str(DOC, &prep.wl.xml).map_err(err)?;
            if prep.wl.kind == Kind::Lookup {
                db.create_index(DOC).map_err(err)?;
            }
            db
        }
        Kind::Update => open_durable(prep)?,
        Kind::Paged => {
            Database::open_with_buffer(&prep.paged_store, prep.pool_pages).map_err(err)?
        }
    })
}

/// The update workload's database: the durable resident store reopened,
/// with the compaction threshold that makes a run span several
/// compactions.
pub fn open_durable(prep: &Prepared) -> Result<Database, String> {
    let mut db = Database::open(&prep.store).map_err(err)?;
    db.set_compaction_threshold(COMPACTION_THRESHOLD);
    Ok(db)
}

/// One set-up: open the database, start the server, answer the warm-up
/// pass. Returns the running server.
pub fn setup(prep: &Prepared) -> Result<Server, String> {
    let db = open_db(prep)?;
    let server =
        Server::start(Arc::new(db), "127.0.0.1:0", ServerConfig::default()).map_err(err)?;
    let mut c = Client::connect(server.addr()).map_err(err)?;
    for i in prep.wl.warmup() {
        judge(&prep.refs[i], c.query(DOC, &prep.wl.universe[i].text))
            .map_err(|e| format!("warm-up `{}`: {e}", prep.wl.universe[i].text))?;
    }
    c.close().map_err(err)?;
    Ok(server)
}

/// Compare a served answer with the reference, byte for byte. Errors,
/// refusals and wrong answers all fail.
pub fn judge(expected: &str, served: Result<(u64, String), ServeError>) -> Result<(), String> {
    match served {
        Ok((_, body)) if body == expected => Ok(()),
        Ok((generation, body)) => Err(format!(
            "wrong answer at generation {generation}: {} bytes, expected {}",
            body.len(),
            expected.len()
        )),
        Err(e) => Err(e.to_string()),
    }
}

/// When each read session stops.
#[derive(Clone, Copy)]
pub enum Stop {
    After(Duration),
    Reads(usize),
}

/// What the closed loop saw.
#[derive(Default)]
pub struct LoopLog {
    /// Read latency in ms of every correct answer, per template.
    pub read_ms: Vec<Vec<f64>>,
    /// Latency in ms of every acknowledged write (insert and delete).
    pub write_ms: Vec<f64>,
    pub rounds: u64,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed: Duration,
    /// First few failures, for the report.
    pub errors: Vec<String>,
    /// Highest `live_versions` seen, when sampled.
    pub live_versions_max: usize,
}

impl LoopLog {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(e);
        }
    }

    fn absorb(&mut self, other: LoopLog) {
        for (mine, theirs) in self.read_ms.iter_mut().zip(other.read_ms) {
            mine.extend(theirs);
        }
        self.write_ms.extend(other.write_ms);
        self.rounds += other.rounds;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// Transport failures end the session's connection; the session
/// reconnects and carries on.
fn is_transport(e: &ServeError) -> bool {
    matches!(
        e,
        ServeError::Io(_) | ServeError::Closed | ServeError::Frame(_) | ServeError::Crc { .. }
    )
}

fn read_session(
    addr: std::net::SocketAddr,
    prep: &Prepared,
    session: usize,
    stop: Stop,
    start: &Barrier,
) -> LoopLog {
    let wl = &prep.wl;
    let mut log = LoopLog { read_ms: vec![Vec::new(); wl.templates.len()], ..LoopLog::default() };
    let mut client = Client::connect(addr);
    let mut stream = wl.stream(session);
    start.wait();
    let t0 = Instant::now();
    let mut n = 0usize;
    loop {
        match stop {
            Stop::After(d) if t0.elapsed() >= d => break,
            Stop::Reads(k) if n >= k => break,
            _ => {}
        }
        n += 1;
        let i = stream.next().expect("streams are endless");
        log.attempted += 1;
        let c = match &mut client {
            Ok(c) => c,
            Err(e) => {
                log.fail(format!("connect: {e}"));
                client = Client::connect(addr);
                continue;
            }
        };
        let req = &wl.universe[i];
        let t = Instant::now();
        let served = c.query(DOC, &req.text);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let transport = served.as_ref().err().is_some_and(is_transport);
        match judge(&prep.refs[i], served) {
            Ok(()) => log.read_ms[req.template].push(ms),
            Err(e) => log.fail(format!("`{}`: {e}", req.text)),
        }
        if transport {
            client = Client::connect(addr);
        }
    }
    log.elapsed = t0.elapsed();
    if let Ok(c) = client {
        let _ = c.close();
    }
    log
}

/// Insert then delete the marker, round after round, until `done` (at
/// least one round). A round always completes, so the document returns to
/// its pre-run bytes.
fn write_session(
    addr: std::net::SocketAddr,
    prep: &Prepared,
    done: &AtomicBool,
    start: &Barrier,
) -> LoopLog {
    let mut log = LoopLog::default();
    let client = Client::connect(addr);
    start.wait();
    let mut c = match client {
        Ok(c) => c,
        Err(e) => {
            log.attempted += 1;
            log.fail(format!("writer connect: {e}"));
            return log;
        }
    };
    loop {
        let target = prep.wl.write_target(log.rounds);
        for (verb, op) in [("insert", 0), ("delete", 1)] {
            log.attempted += 1;
            let t = Instant::now();
            let r = if op == 0 {
                c.insert(DOC, &target, WRITE_FRAGMENT)
            } else {
                c.delete(DOC, MARKER_PATH)
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match r {
                Ok(1) => log.write_ms.push(ms),
                Ok(n) => log.fail(format!("{verb} `{target}` touched {n} nodes, expected 1")),
                Err(e) => {
                    log.fail(format!("{verb} `{target}`: {e}"));
                    return log;
                }
            }
        }
        log.rounds += 1;
        if done.load(Ordering::Relaxed) {
            break;
        }
    }
    let _ = c.close();
    log
}

/// Drive the closed loop: the workload's read sessions, plus the writer
/// on `update`, each waiting for its reply before sending the next
/// request. With `sample_versions`, the calling thread samples the
/// document's live MVCC versions while the sessions run.
pub fn run_loop(server: &Server, prep: &Prepared, stop: Stop, sample_versions: bool) -> LoopLog {
    let addr = server.addr();
    let readers = prep.wl.kind.read_sessions();
    let writer = prep.wl.kind == Kind::Update;
    let start = Barrier::new(readers + usize::from(writer) + 1);
    let done = AtomicBool::new(false);
    let finished = AtomicUsize::new(0);
    let db = server.database();
    let mut log =
        LoopLog { read_ms: vec![Vec::new(); prep.wl.templates.len()], ..LoopLog::default() };
    std::thread::scope(|s| {
        let reader_handles: Vec<_> = (0..readers)
            .map(|session| {
                let (start, finished) = (&start, &finished);
                s.spawn(move || {
                    let log = read_session(addr, prep, session, stop, start);
                    finished.fetch_add(1, Ordering::SeqCst);
                    log
                })
            })
            .collect();
        let writer_handle = writer.then(|| s.spawn(|| write_session(addr, prep, &done, &start)));
        start.wait();
        let t0 = Instant::now();
        if sample_versions {
            while finished.load(Ordering::SeqCst) < readers {
                let live = db.live_versions(DOC).unwrap_or(0);
                log.live_versions_max = log.live_versions_max.max(live);
                std::thread::sleep(Duration::from_micros(500));
            }
        }
        for h in reader_handles {
            log.absorb(h.join().expect("read session panicked"));
        }
        log.elapsed = t0.elapsed();
        done.store(true, Ordering::SeqCst);
        if let Some(h) = writer_handle {
            log.absorb(h.join().expect("write session panicked"));
        }
    });
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(kind: Kind, work: &Path) -> Prepared {
        prepare(Workload::generate_at(kind, 3, 0.05), work).expect("prepare")
    }

    fn work_dir(name: &str) -> PathBuf {
        let d = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn judge_counts_a_corrupted_answer() {
        assert!(judge("<a/>", Ok((0, "<a/>".into()))).is_ok());
        assert!(judge("<a/>", Ok((0, "<b/>".into()))).is_err());
        assert!(judge("<a/>", Ok((0, "<a/> ".into()))).is_err());
        assert!(judge("<a/>", Err(ServeError::Closed)).is_err());
    }

    #[test]
    fn corrupted_served_answers_are_counted_as_failed() {
        let dir = work_dir("corrupt");
        let mut prep = tiny(Kind::Analytics, &dir);
        let server = setup(&prep).expect("setup");
        let clean = run_loop(&server, &prep, Stop::Reads(16), false);
        assert_eq!((clean.attempted, clean.failed), (32, 0), "{:?}", clean.errors);
        // Every served answer to template 0 now differs from the expected
        // bytes by one trailing byte, as a corrupted answer would.
        let t0 = prep.wl.warmup()[0];
        prep.refs[t0].push('!');
        let log = run_loop(&server, &prep, Stop::Reads(16), false);
        assert_eq!(log.attempted, 32);
        assert_eq!(log.failed, 4, "two sessions, each passing template 0 twice");
        assert_eq!(log.errors.len(), 4);
        assert!(log.errors[0].contains("wrong answer"), "{:?}", log.errors);
        assert!(log.read_ms[0].is_empty());
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn update_rounds_restore_the_document() {
        let dir = work_dir("update");
        let prep = tiny(Kind::Update, &dir);
        let server = setup(&prep).expect("setup");
        let db = server.database();
        let (gen0, doc0) = (db.generation(DOC).unwrap(), db.serialize(DOC).unwrap());
        let log = run_loop(&server, &prep, Stop::Reads(200), true);
        assert_eq!(log.failed, 0, "{:?}", log.errors);
        assert!(log.rounds > 0);
        assert_eq!(db.generation(DOC).unwrap() - gen0, 2 * log.rounds);
        assert_eq!(db.serialize(DOC).unwrap(), doc0);
        assert!(log.live_versions_max >= 1);
        drop(db);
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
