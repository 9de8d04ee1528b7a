//! Child processes: building the binaries, one-shot `deepdive run`s, and a
//! `deepdive serve` guard that cannot outlive its owner.

use crate::http;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// A refresh on the large KB takes a few hundred ms; a replay of a long
/// WAL tail takes seconds.
pub const INGEST_TIMEOUT: Duration = Duration::from_secs(30);
const READY_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Paths {
    /// The checkout: the parent of this package's directory.
    pub repo: PathBuf,
    /// Where cargo puts build output: `$CARGO_TARGET_DIR`, else `target`.
    pub target: PathBuf,
    pub program: PathBuf,
}

impl Paths {
    pub fn discover() -> Result<Paths, String> {
        let bench = Path::new(env!("CARGO_MANIFEST_DIR"));
        let repo = bench
            .parent()
            .ok_or("benchmark package has no parent directory")?
            .to_path_buf();
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) if Path::new(&dir).is_absolute() => PathBuf::from(dir),
            Some(dir) => std::env::current_dir()
                .map_err(|e| format!("cannot resolve the working directory: {e}"))?
                .join(dir),
            None => repo.join("target"),
        };
        Ok(Paths {
            program: bench.join("spouse.ddl"),
            repo,
            target,
        })
    }

    pub fn deepdive(&self) -> PathBuf {
        self.target.join("release").join("deepdive")
    }

    pub fn tracer(&self) -> PathBuf {
        self.target.join("release").join("ddbench-trace")
    }

    /// All inputs, checkpoints and WALs of a run live here, on real disk so
    /// fsync is paid.
    pub fn scratch(&self, run_id: &str) -> PathBuf {
        self.target.join("ddbench").join(run_id)
    }

    /// Build the program under test from source (a no-op when fresh).
    pub fn build_deepdive(&self) -> Result<(), String> {
        self.cargo_build(&self.repo.join("Cargo.toml"), "deepdive")
    }

    pub fn build_tracer(&self) -> Result<(), String> {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("trace")
            .join("Cargo.toml");
        self.cargo_build(&manifest, "ddbench-trace")
    }

    fn cargo_build(&self, manifest: &Path, bin: &str) -> Result<(), String> {
        let status = Command::new("cargo")
            .args(["build", "--release", "--quiet", "--offline", "--bin", bin])
            .arg("--manifest-path")
            .arg(manifest)
            .arg("--target-dir")
            .arg(&self.target)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("cargo build of `{bin}` failed ({status})"))
        }
    }
}

/// Peak resident set of a live process in MiB (`VmHWM`), if still readable.
fn vm_hwm_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

pub struct Finished {
    pub wall: Duration,
    pub peak_rss_mib: f64,
}

/// Run a command to completion, timing it from spawn to exit and sampling
/// its peak RSS from `/proc` meanwhile (std has no `wait4`; the high-water
/// mark is reached in the sampler, long before the process exits).
pub fn run_to_completion(mut cmd: Command) -> Result<Finished, String> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let start = Instant::now();
    let child = cmd
        .spawn()
        .map_err(|e| format!("cannot spawn {cmd:?}: {e}"))?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    let (output, peak) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = 0.0f64;
            while !done.load(Ordering::SeqCst) {
                if let Some(mib) = vm_hwm_mib(pid) {
                    peak = peak.max(mib);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            peak
        });
        let output = child.wait_with_output();
        done.store(true, Ordering::SeqCst);
        (output, sampler.join().expect("rss sampler does not panic"))
    });
    let wall = start.elapsed();
    let output = output.map_err(|e| format!("waiting for {cmd:?}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{cmd:?} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Ok(Finished {
        wall,
        peak_rss_mib: peak,
    })
}

fn free_port() -> Result<u16, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("no free port: {e}"))?;
    Ok(listener.local_addr().map_err(|e| e.to_string())?.port())
}

/// A running `deepdive serve`. Dropping it kills the process and waits for
/// it, so no exit path — error return, failed check, panic — leaves a
/// server behind.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Spawn until `/readyz` answered 200.
    pub start: Duration,
}

impl Server {
    /// Start serving `checkpoint` with the server's flags at their defaults
    /// apart from `--threads 2`, on a port nobody holds, and wait for
    /// `/readyz`. A server that loses the race for its port exits at once;
    /// try another port then.
    pub fn spawn(paths: &Paths, checkpoint: &Path) -> Result<Server, String> {
        let mut last = String::new();
        for _ in 0..3 {
            let addr = SocketAddr::from(([127, 0, 0, 1], free_port()?));
            let start = Instant::now();
            let child = Command::new(paths.deepdive())
                .arg("serve")
                .arg(&paths.program)
                .arg("--resume")
                .arg(checkpoint)
                .args(["--addr", &addr.to_string(), "--threads", "2"])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot spawn deepdive serve: {e}"))?;
            let mut server = Server {
                child,
                addr,
                start: Duration::ZERO,
            };
            match server.wait_ready(start) {
                Ok(()) => return Ok(server),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    fn wait_ready(&mut self, start: Instant) -> Result<(), String> {
        loop {
            if let Ok(r) = http::get(self.addr, "/readyz", Duration::from_secs(2)) {
                if r.status == 200 {
                    self.start = start.elapsed();
                    return Ok(());
                }
            }
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!(
                    "deepdive serve exited before it was ready ({status})"
                ));
            }
            if start.elapsed() > READY_TIMEOUT {
                return Err("deepdive serve was not ready within 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn peak_rss_mib(&self) -> f64 {
        vm_hwm_mib(self.child.id()).unwrap_or(0.0)
    }
}

/// `SIGKILL`, so nothing the server has not already made durable can reach
/// the disk afterwards; then wait, so the process is gone when this returns.
impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
