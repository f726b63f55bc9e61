//! A failed write to a spill file is an error the request survives.
//!
//! The test lowers this process's file-size limit (`RLIMIT_FSIZE`) to
//! [`LIMIT`] bytes and ignores `SIGXFSZ`, so a `pwrite` that would grow
//! a file past the limit stops short and then fails with `EFBIG`, the
//! way a full disk fails with `ENOSPC`. A `DiskVec` append that runs
//! into the limit must return the error and keep its length and
//! elements; the streaming ingest onto a disk backing must then decline
//! the body, and the JSON-tree parser, which builds on RAM, must answer
//! the bytes a RAM ingest answers.
//!
//! The limit holds for the whole process, so this file is its own test
//! binary with a single test, and the limit is restored when the test
//! returns or unwinds. The constants are Linux's on x86-64 and AArch64.

#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use std::os::raw::c_int;

use tgp_graph::json::Value;
use tgp_graph::{Array, MemoryBacking};
use tgp_solvers::{ingest_flat, Budget, IngestBacking, Registry, Request};
use tgp_store::DiskBacking;

/// The file-size limit under test: 2 048 `u64`s.
const LIMIT: u64 = 16 * 1024;

const RLIMIT_FSIZE: c_int = 1;
const SIGXFSZ: c_int = 25;
const SIG_IGN: usize = 1;
const SIG_ERR: usize = usize::MAX;
const EFBIG: i32 = 27;

#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn getrlimit(resource: c_int, limit: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, limit: *const Rlimit) -> c_int;
    fn signal(signum: c_int, handler: usize) -> usize;
}

fn file_size_limit() -> Rlimit {
    let mut limit = Rlimit { cur: 0, max: 0 };
    // SAFETY: `limit` is a valid, writable `struct rlimit`.
    assert_eq!(unsafe { getrlimit(RLIMIT_FSIZE, &mut limit) }, 0);
    limit
}

fn set_file_size_limit(limit: &Rlimit) {
    // SAFETY: `limit` is a valid `struct rlimit` whose soft limit is at
    // most its hard limit.
    assert_eq!(unsafe { setrlimit(RLIMIT_FSIZE, limit) }, 0);
}

/// Holds the soft file-size limit at [`LIMIT`] while alive.
struct LoweredLimit {
    was: u64,
}

impl LoweredLimit {
    fn new() -> Self {
        // SAFETY: ignoring a signal installs no handler code.
        assert_ne!(unsafe { signal(SIGXFSZ, SIG_IGN) }, SIG_ERR);
        let mut limit = file_size_limit();
        let was = limit.cur;
        limit.cur = LIMIT.min(limit.max);
        set_file_size_limit(&limit);
        LoweredLimit { was }
    }
}

impl Drop for LoweredLimit {
    fn drop(&mut self) {
        let mut limit = file_size_limit();
        limit.cur = self.was;
        set_file_size_limit(&limit);
    }
}

/// A `bandwidth` request on an `n`-node chain.
fn chain_body(n: usize) -> String {
    let nodes: Vec<String> = (0..n).map(|k| (k * 7919 % 97 + 1).to_string()).collect();
    let edges: Vec<String> = (1..n).map(|k| (k * 31 % 50 + 1).to_string()).collect();
    format!(
        r#"{{"objective":"bandwidth","bound":500,"graph":{{"node_weights":[{}],"edge_weights":[{}]}}}}"#,
        nodes.join(","),
        edges.join(",")
    )
}

/// A `bottleneck` request on an `n`-node binary tree.
fn tree_body(n: usize) -> String {
    let nodes: Vec<String> = (0..n).map(|k| (k * 7919 % 97 + 1).to_string()).collect();
    let edges: Vec<String> = (1..n)
        .map(|k| {
            format!(
                r#"{{"a":{},"b":{k},"weight":{}}}"#,
                (k - 1) / 2,
                k * 31 % 50 + 1
            )
        })
        .collect();
    format!(
        r#"{{"objective":"bottleneck","bound":500,"graph":{{"node_weights":[{}],"edges":[{}]}}}}"#,
        nodes.join(","),
        edges.join(",")
    )
}

fn ingest(body: &str, backing: &IngestBacking) -> Option<Request> {
    ingest_flat(body.as_bytes(), backing, &Budget::unlimited()).expect("no deadline")
}

fn answer(request: &Request) -> String {
    request
        .run_budgeted(&Budget::unlimited())
        .expect("feasible")
        .value
        .to_string()
}

#[test]
fn a_failed_spill_write_is_an_error_and_ingest_falls_back() {
    let dir = std::env::temp_dir();
    let disk = IngestBacking::disk(&dir);
    // 5 000 `u64` node weights are 40 000 bytes, past the limit.
    let bodies = [chain_body(5_000), tree_body(5_000)];
    let ram: Vec<String> = bodies
        .iter()
        .map(|body| answer(&ingest(body, &IngestBacking::Ram).expect("streams")))
        .collect();
    for body in &bodies {
        assert!(ingest(body, &disk).is_some(), "spills without a limit");
    }

    let _limit = LoweredLimit::new();
    let words = (LIMIT / 8) as usize;
    let mut array = DiskBacking::new(&dir).new_array::<u64>(0).unwrap();
    array
        .extend_from_fn(words - 1, |k| k as u64)
        .expect("below the limit");
    let mut want: Vec<u64> = (0..words as u64 - 1).collect();
    // A run across the limit writes short, then fails.
    let error = array
        .extend_from_slice(&[7, 8, 9])
        .expect_err("past the limit");
    assert_eq!(error.raw_os_error(), Some(EFBIG), "{error}");
    assert_eq!(array.as_slice(), want.as_slice());
    // The last word below the limit still fits; none after it does.
    array.push(7).expect("up to the limit");
    want.push(7);
    assert_eq!(
        array.push(8).map_err(|e| e.raw_os_error()),
        Err(Some(EFBIG))
    );
    let failed = array.extend_from_fn(10, |k| k as u64);
    assert_eq!(failed.map_err(|e| e.raw_os_error()), Err(Some(EFBIG)));
    assert_eq!(array.len(), words);
    assert_eq!(array.as_slice(), want.as_slice());

    for (body, ram) in bodies.iter().zip(&ram) {
        assert!(ingest(body, &disk).is_none(), "a failed write declines");
        let value = Value::parse(body).expect("JSON");
        let (_, _, request) = Registry::shared().dispatch(&value).expect("valid");
        assert_eq!(&answer(&request), ram);
    }
}
