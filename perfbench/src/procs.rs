//! Spawned `fairrank` processes: started, discovered, measured, and
//! always killed and reaped.

use crate::Result;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

/// A long-running `fairrank serve` or `fairrank router` process bound
/// to an ephemeral port. Dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    /// Held open so the process never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Start `fairrank <args…> --port 0` and read the address it
    /// announces on its first stdout line.
    pub fn spawn(fairrank: &Path, args: &[&str]) -> Result<Server> {
        let mut child = Command::new(fairrank)
            .args(args)
            .args(["--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", fairrank.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let announced = stdout.read_line(&mut line);
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        match (announced, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "fairrank {} did not announce an address (got {line:?})",
                    args.join(" ")
                ))
            }
        }
    }

    /// Peak resident set size so far (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read the status of pid {}: {e}", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM for pid {}", self.child.id()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Run `fairrank <args…>` to completion and return its stdout; a
/// non-zero exit is an error.
pub fn run(fairrank: &Path, args: &[&str]) -> Result<Vec<u8>> {
    let out = Command::new(fairrank)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", fairrank.display()))?;
    if !out.status.success() {
        return Err(format!(
            "fairrank {} exited with {}",
            args.join(" "),
            out.status
        ));
    }
    Ok(out.stdout)
}

/// Largest peak resident set size of any reaped child process, in MB
/// (`getrusage(RUSAGE_CHILDREN).ru_maxrss`).
#[cfg(target_os = "linux")]
pub fn children_peak_rss_mb() -> f64 {
    // struct rusage on Linux: two `struct timeval` (two longs each),
    // then fourteen longs of which `ru_maxrss` (kB) is the first.
    #[repr(C)]
    struct RUsage {
        utime: [std::ffi::c_long; 2],
        stime: [std::ffi::c_long; 2],
        maxrss: std::ffi::c_long,
        rest: [std::ffi::c_long; 13],
    }
    extern "C" {
        fn getrusage(who: std::ffi::c_int, usage: *mut RUsage) -> std::ffi::c_int;
    }
    const RUSAGE_CHILDREN: std::ffi::c_int = -1;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the
    // kernel's `struct rusage`, which is all `getrusage` writes.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}
