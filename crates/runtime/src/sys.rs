//! Raw-socket shims for the handful of calls `std::net` does not expose.
//!
//! The workspace is offline (no libc crate), but `std` already links the
//! platform C library, so the needed calls are declared directly with
//! `extern "C"`. One of them is the engine thread's only wait: `ppoll(2)`
//! (`poll(2)` off Linux) over the node's sockets and its wake-up pipe,
//! with a `timespec` timeout that keeps a 1 ms tick at microsecond
//! resolution. Three socket options matter to the runtime:
//!
//! - `SO_REUSEADDR`/`SO_REUSEPORT` on the shared UDP multicast port, so
//!   every member process (and every in-process node in tests) can bind the
//!   same port and each receive its own copy of every group datagram;
//! - `IP_MULTICAST_IF` pinned to 127.0.0.1, so sends to 239.x groups route
//!   via loopback without needing a multicast route on a real interface;
//! - `SO_REUSEADDR` on the TCP mesh listener, so a kill -9'd member can
//!   rebind its listening port immediately on restart even while the old
//!   incarnation's connections linger in TIME_WAIT.
//!
//! On non-Linux unix the plain `std` calls are used instead (the constants
//! differ per platform); multicast setup failures there simply select the
//! TCP fallback path.

use std::io;
use std::net::{SocketAddrV4, TcpListener, UdpSocket};
use std::time::Duration;

/// `struct pollfd`, the same on every unix.
#[repr(C)]
pub(crate) struct PollFd {
    pub fd: i32,
    pub events: i16,
    pub revents: i16,
}

/// Data to read (or a connection to accept).
pub(crate) const POLLIN: i16 = 0x1;
/// Room to write.
pub(crate) const POLLOUT: i16 = 0x4;

impl PollFd {
    pub fn new(fd: i32, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

/// Wait up to `timeout` for an event on any of `fds`; returns how many have
/// one (their `revents`, which the call sets for every entry). A signal ends
/// the wait early with none.
pub(crate) fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    #[cfg(target_os = "linux")]
    let rc = linux::wait(fds, timeout);
    #[cfg(not(target_os = "linux"))]
    let rc = other::wait(fds, timeout);
    if rc < 0 {
        let err = io::Error::last_os_error();
        return match err.kind() {
            io::ErrorKind::Interrupted => Ok(0),
            _ => Err(err),
        };
    }
    Ok(rc as usize)
}

#[cfg(not(target_os = "linux"))]
mod other {
    use super::PollFd;
    use core::ffi::{c_int, c_uint};
    use std::time::Duration;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_uint, timeout_ms: c_int) -> c_int;
    }

    /// Millisecond `poll(2)`, the timeout rounded up.
    pub fn wait(fds: &mut [PollFd], timeout: Duration) -> c_int {
        let ms = timeout.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int;
        unsafe { poll(fds.as_mut_ptr(), fds.len() as c_uint, ms) }
    }
}

#[cfg(target_os = "linux")]
mod linux {
    use super::*;
    use core::ffi::{c_int, c_long, c_ulong, c_void};
    use std::os::unix::io::{AsRawFd, FromRawFd};

    const AF_INET: c_int = 2;
    const SOCK_DGRAM: c_int = 2;
    const SOCK_STREAM: c_int = 1;
    const SOL_SOCKET: c_int = 1;
    const SO_REUSEADDR: c_int = 2;
    const SO_REUSEPORT: c_int = 15;
    const IPPROTO_IP: c_int = 0;
    const IP_MULTICAST_IF: c_int = 32;

    /// `struct sockaddr_in` (Linux layout). Ports and addresses are in
    /// network byte order.
    #[repr(C)]
    struct SockaddrIn {
        sin_family: u16,
        sin_port: u16,
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: u32,
        ) -> c_int;
        fn bind(fd: c_int, addr: *const c_void, len: u32) -> c_int;
        fn listen(fd: c_int, backlog: c_int) -> c_int;
        fn close(fd: c_int) -> c_int;
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    /// `struct timespec`.
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    pub fn wait(fds: &mut [PollFd], timeout: Duration) -> c_int {
        let ts = Timespec {
            tv_sec: timeout.as_secs().min(c_long::MAX as u64) as c_long,
            tv_nsec: timeout.subsec_nanos() as c_long,
        };
        unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                &ts,
                std::ptr::null(),
            )
        }
    }

    fn check(rc: c_int, fd: Option<c_int>) -> io::Result<()> {
        if rc < 0 {
            let err = io::Error::last_os_error();
            if let Some(fd) = fd {
                unsafe { close(fd) };
            }
            return Err(err);
        }
        Ok(())
    }

    fn set_reuse(fd: c_int) -> io::Result<()> {
        let one: c_int = 1;
        let p = (&one as *const c_int).cast::<c_void>();
        let len = std::mem::size_of::<c_int>() as u32;
        check(
            unsafe { setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, p, len) },
            Some(fd),
        )?;
        check(
            unsafe { setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, p, len) },
            Some(fd),
        )
    }

    fn bind_v4(fd: c_int, addr: SocketAddrV4) -> io::Result<()> {
        let sa = SockaddrIn {
            sin_family: AF_INET as u16,
            sin_port: addr.port().to_be(),
            sin_addr: u32::from(*addr.ip()).to_be(),
            sin_zero: [0; 8],
        };
        let len = std::mem::size_of::<SockaddrIn>() as u32;
        check(
            unsafe { bind(fd, (&sa as *const SockaddrIn).cast::<c_void>(), len) },
            Some(fd),
        )
    }

    pub fn udp_socket_shared(addr: SocketAddrV4) -> io::Result<UdpSocket> {
        let fd = unsafe { socket(AF_INET, SOCK_DGRAM, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        set_reuse(fd)?;
        bind_v4(fd, addr)?;
        Ok(unsafe { UdpSocket::from_raw_fd(fd) })
    }

    pub fn tcp_listener_reuse(addr: SocketAddrV4) -> io::Result<TcpListener> {
        let fd = unsafe { socket(AF_INET, SOCK_STREAM, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        set_reuse(fd)?;
        bind_v4(fd, addr)?;
        check(unsafe { listen(fd, 64) }, Some(fd))?;
        Ok(unsafe { TcpListener::from_raw_fd(fd) })
    }

    pub fn set_multicast_if_loopback(sock: &UdpSocket) -> io::Result<()> {
        // in_addr for 127.0.0.1, network byte order.
        let addr: u32 = u32::from(std::net::Ipv4Addr::LOCALHOST).to_be();
        let rc = unsafe {
            setsockopt(
                sock.as_raw_fd(),
                IPPROTO_IP,
                IP_MULTICAST_IF,
                (&addr as *const u32).cast::<c_void>(),
                std::mem::size_of::<u32>() as u32,
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

/// Bind a UDP socket with `SO_REUSEADDR`+`SO_REUSEPORT` so many sockets
/// (across processes) can share one multicast port.
pub fn udp_socket_shared(addr: SocketAddrV4) -> io::Result<UdpSocket> {
    #[cfg(target_os = "linux")]
    {
        linux::udp_socket_shared(addr)
    }
    #[cfg(not(target_os = "linux"))]
    {
        UdpSocket::bind(addr)
    }
}

/// Bind+listen a TCP listener with `SO_REUSEADDR` (restart-friendly).
pub fn tcp_listener_reuse(addr: SocketAddrV4) -> io::Result<TcpListener> {
    #[cfg(target_os = "linux")]
    {
        linux::tcp_listener_reuse(addr)
    }
    #[cfg(not(target_os = "linux"))]
    {
        TcpListener::bind(addr)
    }
}

/// Route this socket's outgoing multicast via the loopback interface.
pub fn set_multicast_if_loopback(sock: &UdpSocket) -> io::Result<()> {
    #[cfg(target_os = "linux")]
    {
        linux::set_multicast_if_loopback(sock)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = sock;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn two_sockets_share_one_udp_port() {
        let a = udp_socket_shared(SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0))
            .expect("first shared socket");
        let port = match a.local_addr().expect("local addr") {
            std::net::SocketAddr::V4(v4) => v4.port(),
            other => panic!("unexpected addr {other:?}"),
        };
        // Binding the *same* port a second time is the whole point.
        let _b = udp_socket_shared(SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, port))
            .expect("second socket on the same port");
    }

    #[test]
    fn poll_waits_out_its_timeout_or_reports_the_ready_descriptor() {
        use std::io::Write;
        use std::os::fd::AsRawFd;
        let (rx, mut tx) = std::io::pipe().expect("pipe");
        let mut fds = [PollFd::new(rx.as_raw_fd(), POLLIN)];
        let waited = std::time::Instant::now();
        assert_eq!(poll(&mut fds, Duration::from_millis(30)).unwrap(), 0);
        assert!(waited.elapsed() >= Duration::from_millis(25));
        tx.write_all(&[1]).expect("write");
        assert_eq!(poll(&mut fds, Duration::from_secs(5)).unwrap(), 1);
        assert_eq!(fds[0].revents & POLLIN, POLLIN);
    }

    #[test]
    fn tcp_listener_binds_and_accept_works() {
        let l = tcp_listener_reuse(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)).expect("listener");
        let addr = l.local_addr().expect("addr");
        let _c = std::net::TcpStream::connect(addr).expect("connect");
        let (_s, _peer) = l.accept().expect("accept");
    }
}
