//! One `repro` child process: spawn, capture stdout, reap with `wait4` so
//! the kernel hands back the child's CPU time and peak RSS.

use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads `struct rusage` with its 64-bit Linux layout");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` as 64-bit Linux lays it out (two timevals, 14 longs).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    /// Peak resident set, in KiB on Linux.
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    // Declared by hand: the package takes no crates, libc included.
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one finished child cost and printed.
pub struct ChildRun {
    /// Spawn → reaped, seconds.
    pub wall_s: f64,
    /// User + system CPU of the child, seconds.
    pub cpu_s: f64,
    /// Peak resident set of the child, MB.
    pub peak_rss_mb: f64,
    /// Exit code; `None` when killed by a signal.
    pub exit_code: Option<i32>,
    /// Everything the child wrote to stdout.
    pub stdout: Vec<u8>,
}

/// Run `program args…` with `BEEHIVE_WORKERS=workers`, stderr appended to
/// `stderr_log`. Always reaps the child before returning.
pub fn run(
    program: &Path,
    args: &[String],
    workers: usize,
    stderr_log: &Path,
) -> std::io::Result<ChildRun> {
    let stderr = File::options().create(true).append(true).open(stderr_log)?;
    let t0 = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .env("BEEHIVE_WORKERS", workers.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()?;
    let mut stdout = Vec::new();
    // Read to EOF first (the child closes stdout when it exits); a read
    // error must not skip the reap below.
    let read = child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_end(&mut stdout);
    let (status, usage) = reap(child.id() as i32)?;
    let wall_s = t0.elapsed().as_secs_f64();
    read?;
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    Ok(ChildRun {
        wall_s,
        cpu_s: secs(&usage.ru_utime) + secs(&usage.ru_stime),
        peak_rss_mb: usage.ru_maxrss as f64 * 1024.0 / 1e6,
        // WIFEXITED(status) ? WEXITSTATUS(status) : signalled
        exit_code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        stdout,
    })
}

/// Block until `pid` exits; its wait status and resource usage.
fn reap(pid: i32) -> std::io::Result<(i32, Rusage)> {
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable, and `Rusage` has
        // the layout the kernel writes on this target (checked by the
        // cfg gate above); `pid` is our own un-reaped child, so the call
        // cannot reap a process some other code owns.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            return Ok((status, usage));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_exit_code_stdout_and_usage() {
        // Inside the package's ignored out/ directory, not the system tmp.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join(format!("child-test-{}.stderr", std::process::id()));
        let args = ["-c".to_string(), "printf hello; exit 3".to_string()];
        let r = run(Path::new("/bin/sh"), &args, 1, &log).unwrap();
        let _ = std::fs::remove_file(&log);
        assert_eq!(r.exit_code, Some(3));
        assert_eq!(r.stdout, b"hello");
        assert!(r.wall_s > 0.0 && r.peak_rss_mb > 0.0 && r.cpu_s >= 0.0);
    }
}
