//! The server under test as a child process, plus the `/proc` and
//! `/metrics` readings taken around a measured phase.

use std::fs;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `USER_HZ`: the unit of the CPU times in `/proc/<pid>/stat`. Linux
/// fixes it at 100 for user space on every architecture it ships.
pub const TICKS_PER_SEC: f64 = 100.0;

/// A running `tgp serve`; killed and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: String,
}

impl Server {
    /// Starts `bin serve --addr 127.0.0.1:0 <args>` and waits until it
    /// is listening and answers `/healthz`.
    pub fn spawn(bin: &Path, args: &[String], log: &Path) -> io::Result<Server> {
        let log_file = fs::File::create(log)?;
        let child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file)
            .spawn()?;
        let mut server = Server {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let text = fs::read_to_string(log).unwrap_or_default();
            // Only a whole line counts: the log may be read mid-write.
            let listening = text
                .lines()
                .zip(text.split_inclusive('\n'))
                .filter(|(_, raw)| raw.ends_with('\n'))
                .find_map(|(line, _)| line.split("listening on http://").nth(1));
            if let Some(rest) = listening {
                server.addr = rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
                break;
            }
            if let Some(status) = server.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "server exited during start-up ({status}): {text}"
                )));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("server did not start listening"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        let health = server.get("/healthz")?;
        if !health.contains("\"ok\"") {
            return Err(io::Error::other(format!("unhealthy server: {health}")));
        }
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One `GET` on a fresh connection; returns the body.
    pub fn get(&self, path: &str) -> io::Result<String> {
        let mut stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\r\n"
        )?;
        let mut text = String::new();
        stream.read_to_string(&mut text)?;
        let body = text.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
        Ok(body.to_string())
    }

    /// Server CPU so far, user plus system, in seconds.
    pub fn cpu_secs(&self) -> io::Result<f64> {
        proc_cpu_secs(&format!("/proc/{}/stat", self.pid()))
    }

    /// The server's peak resident set (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> io::Result<u64> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // The journals are crash-safe by design, so SIGKILL is a fine
        // way to stop; waiting reaps the process.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// User plus system CPU of the process whose `stat` file is `path`.
pub fn proc_cpu_secs(path: &str) -> io::Result<f64> {
    let stat = fs::read_to_string(path)?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other("malformed stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .map(|v| v as f64 / TICKS_PER_SEC)
            .ok_or_else(|| io::Error::other("malformed stat"))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Host-wide steal ticks from `/proc/stat` (0 where not reported).
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// The `/metrics` values the benchmark reads, from one scrape.
#[derive(Debug, Default, Clone)]
pub struct Scrape {
    /// `(sum seconds, count)` per stage, in `STAGES` order.
    pub stages: Vec<(f64, f64)>,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub backing_ram: f64,
    pub backing_disk: f64,
}

/// The `/metrics` pipeline stages, in pipeline order.
pub const STAGES: [&str; 8] = [
    "queue",
    "parse",
    "ingest",
    "cache",
    "session",
    "solve",
    "serialize",
    "write",
];

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let value = |series: &str| -> f64 {
            text.lines()
                .find_map(|l| l.strip_prefix(series))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0.0)
        };
        Scrape {
            stages: STAGES
                .iter()
                .map(|s| {
                    (
                        value(&format!("tgp_stage_latency_seconds_sum{{stage=\"{s}\"}} ")),
                        value(&format!(
                            "tgp_stage_latency_seconds_count{{stage=\"{s}\"}} "
                        )),
                    )
                })
                .collect(),
            cache_hits: value("tgp_cache_hits_total "),
            cache_misses: value("tgp_cache_misses_total "),
            backing_ram: value("tgp_store_backing{kind=\"ram\"} "),
            backing_disk: value("tgp_store_backing{kind=\"disk\"} "),
        }
    }

    /// `self - before`, field by field.
    pub fn since(&self, before: &Scrape) -> Scrape {
        Scrape {
            stages: self
                .stages
                .iter()
                .zip(&before.stages)
                .map(|(a, b)| (a.0 - b.0, a.1 - b.1))
                .collect(),
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            backing_ram: self.backing_ram - before.backing_ram,
            backing_disk: self.backing_disk - before.backing_disk,
        }
    }
}

/// A scratch directory for one run's server files, removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(path: PathBuf) -> io::Result<Scratch> {
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path)?;
        Ok(Scratch(path))
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}
