//! The two operating-system facts the harness needs beyond `std`: a
//! readiness wait with sub-millisecond timeouts, and the process's peak
//! resident set.

use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_long, c_short, c_ulong};
use std::time::Duration;

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> c_int;
}

/// Waits until one of `streams` is readable (or writable, where
/// `want_write[i]` is set) or `timeout` passes. `epoll_wait` rounds its
/// timeout down to whole milliseconds, which would let an open-loop
/// schedule with sub-millisecond periods run late; `ppoll` takes
/// nanoseconds.
///
/// # Errors
///
/// Propagates the `ppoll` error other than `EINTR`.
pub fn wait_ready(
    streams: &[&TcpStream],
    want_write: &[bool],
    timeout: Duration,
) -> std::io::Result<()> {
    let mut fds: Vec<PollFd> = streams
        .iter()
        .zip(want_write)
        .map(|(s, &w)| PollFd {
            fd: s.as_raw_fd(),
            events: if w { POLLIN | POLLOUT } else { POLLIN },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: c_long::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `struct pollfd`-layout entries whose descriptors stay open for the
    // call (the streams are borrowed); `ts` outlives the call; a null
    // signal mask leaves the mask unchanged.
    let ret = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    if ret < 0 {
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

/// The process's peak resident set (`VmHWM`) in MiB, read from
/// `/proc/self/status`.
///
/// # Errors
///
/// Fails when the file cannot be read or lacks the field.
pub fn peak_rss_mib() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| std::io::Error::other("VmHWM missing from /proc/self/status"))
}
