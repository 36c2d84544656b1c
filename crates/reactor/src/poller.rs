//! A minimal vendored readiness poller over `poll(2)` / `ppoll(2)`.
//!
//! The workspace builds offline against vendored stand-in crates, so there
//! is no `mio` (and no `libc` crate) to lean on. This module is the small
//! slice of a poller the reactor actually needs, written directly against
//! the C ABI: `std` already links the platform libc, so declaring
//! `poll`/`ppoll` ourselves adds no dependency. Level-triggered, oneshot
//! interest rebuilt per iteration — the simplest semantics that are
//! impossible to get wrong, and plenty for a few thousand descriptors per
//! reactor thread (`poll(2)` is O(fds) per call, but so is the work a
//! reactor loop does with the readiness answers).
//!
//! On Linux the wait uses `ppoll(2)` for nanosecond-resolution timeouts —
//! flush holds are tens of microseconds, which `poll(2)`'s millisecond
//! granularity would quantize away. Elsewhere it falls back to `poll(2)`
//! with the timeout rounded *up* to the next millisecond (rounding down
//! could turn a 20µs hold into a busy spin at timeout 0).
//!
//! The [`Waker`] is a Unix-domain socket pair (the std-only stand-in for
//! `pipe(2)`): one byte written to the send half makes the receive half
//! readable, unblocking a reactor parked in the poller. An `armed` flag
//! dedupes wakes so a burst of sends costs one syscall, not one per
//! message.

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Readable interest / readiness (POLLIN).
pub const POLL_IN: i16 = 0x001;
/// Writable interest / readiness (POLLOUT).
pub const POLL_OUT: i16 = 0x004;
/// Error condition (POLLERR, revents only).
pub const POLL_ERR: i16 = 0x008;
/// Peer hung up (POLLHUP, revents only).
pub const POLL_HUP: i16 = 0x010;
/// Invalid descriptor (POLLNVAL, revents only).
pub const POLL_NVAL: i16 = 0x020;

/// One entry of the poll set — ABI-compatible with `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    /// The file descriptor to watch.
    pub fd: RawFd,
    /// Requested events ([`POLL_IN`] | [`POLL_OUT`]).
    pub events: i16,
    /// Returned events, filled by the kernel.
    pub revents: i16,
}

impl PollFd {
    /// Builds an entry watching `fd` for `events`.
    pub fn new(fd: RawFd, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether any readable/error/hangup condition fired (a read attempt
    /// will make progress or report the failure).
    pub fn readable(&self) -> bool {
        self.revents & (POLL_IN | POLL_ERR | POLL_HUP | POLL_NVAL) != 0
    }

    /// Whether the descriptor is writable (or in an error state a write
    /// will surface).
    pub fn writable(&self) -> bool {
        self.revents & (POLL_OUT | POLL_ERR | POLL_HUP | POLL_NVAL) != 0
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use super::PollFd;
    use std::ffi::{c_int, c_ulong, c_void};

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    /// Waits for readiness; `None` blocks indefinitely. Returns the raw
    /// `ppoll` result (≥ 0 ready count, < 0 error with errno set).
    pub(super) fn wait(fds: &mut [PollFd], timeout: Option<std::time::Duration>) -> i32 {
        let ts = timeout.map(|t| Timespec {
            tv_sec: t.as_secs().min(i64::MAX as u64) as i64,
            tv_nsec: i64::from(t.subsec_nanos()),
        });
        let ts_ptr = ts
            .as_ref()
            .map_or(std::ptr::null(), |t| t as *const Timespec);
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // ABI-compatible `pollfd` entries for the duration of the call;
        // `ts_ptr` is null or points at a live Timespec; a null sigmask
        // means "don't touch the signal mask".
        unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                ts_ptr,
                std::ptr::null(),
            )
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::PollFd;
    use std::ffi::{c_int, c_ulong};

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Waits for readiness; `None` blocks indefinitely. Millisecond
    /// granularity, rounded up so short holds never degrade to a spin.
    pub(super) fn wait(fds: &mut [PollFd], timeout: Option<std::time::Duration>) -> i32 {
        let ms: c_int = match timeout {
            None => -1,
            Some(t) => t
                .as_millis()
                .saturating_add(u128::from(t.subsec_nanos() % 1_000_000 != 0))
                .min(c_int::MAX as u128) as c_int,
        };
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // ABI-compatible `pollfd` entries for the duration of the call.
        unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) }
    }
}

/// Waits for readiness on `fds`, blocking at most `timeout` (`None` =
/// indefinitely). Returns the number of entries with non-zero `revents`;
/// 0 on timeout. `EINTR` is reported as `Ok(0)` — the reactor loop re-polls
/// anyway, so a spurious zero is indistinguishable from a timeout race.
///
/// # Errors
///
/// Any other `poll(2)`/`ppoll(2)` failure, as [`io::Error`].
pub fn poll_fds(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    if fds.is_empty() {
        // poll(2) with zero fds is a sleep; do it without the syscall.
        if let Some(t) = timeout {
            std::thread::sleep(t);
            return Ok(0);
        }
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "blocking poll over an empty fd set would never return",
        ));
    }
    for fd in fds.iter_mut() {
        fd.revents = 0;
    }
    match sys::wait(fds, timeout) {
        n if n >= 0 => Ok(n as usize),
        _ => {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                Ok(0)
            } else {
                Err(err)
            }
        }
    }
}

/// The wake half of a reactor's self-notification channel. Clone-free:
/// share via `Arc`. See the module docs for the socket-pair construction.
#[derive(Debug)]
pub struct Waker {
    tx: UnixStream,
    armed: AtomicBool,
}

impl Waker {
    /// Makes the paired reactor's poll return. Cheap when the reactor has
    /// not yet drained the previous wake (one atomic, no syscall).
    pub fn wake(&self) {
        if !self.armed.swap(true, Ordering::AcqRel) {
            // The tx half is non-blocking: a full buffer (WouldBlock) is
            // itself a pending wake, so the error is safely ignored.
            let _ = (&self.tx).write(&[1u8]);
        }
    }
}

/// The receive half, owned by the reactor: registered for [`POLL_IN`] and
/// drained every time it fires.
#[derive(Debug)]
pub struct WakeRx {
    rx: UnixStream,
    armed: std::sync::Arc<Waker>,
}

impl WakeRx {
    /// The descriptor to register for readable interest.
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Consumes a pending wake: empties the socket, then disarms. The order
    /// matters — anything enqueued before the disarm is observed by the
    /// queue drain that follows this call, and anything after re-arms (and
    /// re-signals) the waker.
    ///
    /// One `read(2)` empties the socket: [`Waker::wake`] writes a byte only
    /// on the `armed` flag's false→true edge and only this method clears
    /// the flag, after the read, so at most one byte is pending whenever
    /// the socket polls readable — there is no second read to learn
    /// `WouldBlock` from.
    pub fn drain(&mut self) {
        let mut buf = [0u8; 8];
        let _ = self.rx.read(&mut buf);
        self.armed.armed.store(false, Ordering::Release);
    }
}

/// Builds a connected waker pair over a Unix-domain socket pair: the
/// [`Waker`] is shared with producers, the [`WakeRx`] stays with the
/// reactor thread.
///
/// # Errors
///
/// Any error creating the socket pair or making it non-blocking.
pub fn waker_pair() -> io::Result<(std::sync::Arc<Waker>, WakeRx)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    let waker = std::sync::Arc::new(Waker {
        tx,
        armed: AtomicBool::new(false),
    });
    Ok((std::sync::Arc::clone(&waker), WakeRx { rx, armed: waker }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn timeout_poll_returns_without_readiness() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut fds = [PollFd::new(listener.as_raw_fd(), POLL_IN)];
        let t0 = Instant::now();
        let n = poll_fds(&mut fds, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0, "nothing to accept");
        assert!(
            t0.elapsed() >= Duration::from_millis(9),
            "the wait happened"
        );
        assert!(!fds[0].readable());
    }

    #[test]
    fn readable_socket_reports_readiness_immediately() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        a.write_all(&[7]).unwrap();
        a.flush().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut fds = [PollFd::new(b.as_raw_fd(), POLL_IN | POLL_OUT)];
        let n = poll_fds(&mut fds, Some(Duration::from_secs(2))).unwrap();
        assert!(n >= 1);
        assert!(fds[0].readable(), "one byte is waiting");
        assert!(fds[0].writable(), "a fresh socket buffer accepts writes");
    }

    #[test]
    fn waker_unblocks_a_parked_poll_and_dedupes() {
        let (waker, mut rx) = waker_pair().unwrap();
        let w2 = Arc::clone(&waker);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            // A burst of wakes collapses into one pending byte.
            for _ in 0..100 {
                w2.wake();
            }
        });
        let mut fds = [PollFd::new(rx.fd(), POLL_IN)];
        let n = poll_fds(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert!(n >= 1 && fds[0].readable(), "the wake landed");
        rx.drain();
        h.join().unwrap();
        // Drained and disarmed: the next poll times out...
        let mut fds = [PollFd::new(rx.fd(), POLL_IN)];
        let n = poll_fds(&mut fds, Some(Duration::from_millis(20))).unwrap();
        assert_eq!(n, 0, "no stale wake bytes survive a drain");
        // ...until somebody wakes again.
        waker.wake();
        let n = poll_fds(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert!(n >= 1, "a post-drain wake re-arms and re-signals");
    }

    #[test]
    fn empty_fd_set_with_timeout_just_sleeps() {
        let t0 = Instant::now();
        assert_eq!(
            poll_fds(&mut [], Some(Duration::from_millis(5))).unwrap(),
            0
        );
        assert!(t0.elapsed() >= Duration::from_millis(4));
        assert!(
            poll_fds(&mut [], None).is_err(),
            "blocking forever is a bug"
        );
    }
}
