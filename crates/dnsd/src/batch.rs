//! Batched UDP receive/send.
//!
//! The worker serving path spends a large share of its per-query budget in
//! `recvfrom`/`sendto` syscalls. Linux offers `recvmmsg(2)`/`sendmmsg(2)`,
//! which move up to a whole batch of datagrams per kernel crossing;
//! [`RecvBatch`] and [`SendBatch`] wrap them behind a portable API with a
//! one-datagram-at-a-time fallback on other platforms (and the fallback is
//! also what non-Linux CI exercises, so behaviour — not throughput — is
//! identical everywhere).
//!
//! The `std` runtime already links libc on every supported platform, so
//! the two syscall wrappers are declared here directly (`extern "C"`) —
//! no new dependency. Struct layouts (`iovec`, `msghdr`, `mmsghdr`,
//! `sockaddr_in[6]`) are spelled out `repr(C)` to match the Linux ABI;
//! `debug_assert`s in the tests pin the sizes on the platforms we build.
//!
//! Blocking semantics: `recv` honours the socket's `SO_RCVTIMEO` for the
//! *first* datagram, then (via `MSG_WAITFORONE`) drains whatever else is
//! already queued without waiting — so a lightly-loaded server keeps its
//! shutdown latency, and a loaded one amortizes the syscall across the
//! queue depth.

use std::io;
use std::net::{SocketAddr, UdpSocket};

/// Largest UDP datagram the serving path accepts (RFC 6891's recommended
/// EDNS size).
pub const MAX_DATAGRAM: usize = 4096;

/// Default batch width: big enough to amortize the syscall under load,
/// small enough that per-worker buffers stay cache-friendly (32 × 4 KiB =
/// 128 KiB per direction).
pub const DEFAULT_BATCH: usize = 32;

/// A reusable receive window over a UDP socket.
pub struct RecvBatch {
    bufs: Vec<Box<[u8; MAX_DATAGRAM]>>,
    /// (payload length, peer) per received datagram, valid for indices
    /// `0..last_count`.
    meta: Vec<(usize, SocketAddr)>,
    #[cfg(target_os = "linux")]
    sys: linux::RecvSys,
}

impl RecvBatch {
    /// Creates a window able to receive up to `capacity` datagrams per
    /// call (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RecvBatch {
            bufs: (0..capacity)
                .map(|_| Box::new([0u8; MAX_DATAGRAM]))
                .collect(),
            meta: Vec::with_capacity(capacity),
            #[cfg(target_os = "linux")]
            sys: linux::RecvSys::new(capacity),
        }
    }

    /// Receives up to the window's capacity of datagrams. Returns how many
    /// arrived; `0` means the socket's read timeout lapsed with nothing
    /// queued. Waits only for the first datagram — the rest are taken
    /// without blocking if already queued.
    pub fn recv(&mut self, socket: &UdpSocket) -> io::Result<usize> {
        self.meta.clear();
        #[cfg(target_os = "linux")]
        {
            self.sys.recv(socket, &mut self.bufs, &mut self.meta)
        }
        #[cfg(not(target_os = "linux"))]
        {
            match socket.recv_from(&mut self.bufs[0][..]) {
                Ok((n, peer)) => {
                    self.meta.push((n, peer));
                    Ok(1)
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    Ok(0)
                }
                Err(e) => Err(e),
            }
        }
    }

    /// The `i`-th datagram of the last [`RecvBatch::recv`] call.
    pub fn datagram(&self, i: usize) -> (&[u8], SocketAddr) {
        let (len, peer) = self.meta[i];
        (&self.bufs[i][..len], peer)
    }
}

/// A queue of outbound datagrams flushed in one (or few) syscalls.
#[derive(Default)]
pub struct SendBatch {
    items: Vec<(Vec<u8>, SocketAddr)>,
    /// Flushed payload buffers, emptied, kept for [`SendBatch::spare`] —
    /// at most [`DEFAULT_BATCH`] of them, so a caller that never asks for
    /// one back holds a fixed handful and the rest are freed as before.
    spares: Vec<Vec<u8>>,
    #[cfg(target_os = "linux")]
    sys: linux::SendSys,
}

impl SendBatch {
    /// Creates an empty queue.
    pub fn new() -> Self {
        SendBatch::default()
    }

    /// Queues one datagram.
    pub fn push(&mut self, payload: Vec<u8>, peer: SocketAddr) {
        self.items.push((payload, peer));
    }

    /// An empty buffer to build the next payload in: one an earlier
    /// [`SendBatch::flush`] sent and kept, capacity intact, when there is
    /// one — so a serving loop that encodes into `spare()` and `push`es the
    /// result stops allocating per reply once its first batches have gone
    /// out.
    pub fn spare(&mut self) -> Vec<u8> {
        self.spares.pop().unwrap_or_else(|| Vec::with_capacity(512))
    }

    /// Queued datagrams not yet flushed.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Sends every queued datagram, clears the queue — whatever the
    /// outcome — and returns how many the kernel took. A datagram the
    /// kernel refuses (an unroutable peer, port 0, a full buffer) costs
    /// that datagram only: it is skipped and the rest still go out (UDP
    /// semantics — the peer times out and retries), so `queued − sent` is
    /// the caller's failure count. `Err` is a socket that is not one any
    /// more (`EBADF`/`ENOTSOCK`, detected on Linux).
    pub fn flush(&mut self, socket: &UdpSocket) -> io::Result<usize> {
        #[cfg(target_os = "linux")]
        let sent = self.sys.send_all(socket, &self.items);
        #[cfg(not(target_os = "linux"))]
        let sent = {
            let mut n = 0;
            for (payload, peer) in &self.items {
                if socket.send_to(payload, *peer).is_ok() {
                    n += 1;
                }
            }
            Ok(n)
        };
        let room = DEFAULT_BATCH - self.spares.len();
        self.spares
            .extend(self.items.drain(..).take(room).map(|(mut payload, _)| {
                payload.clear();
                payload
            }));
        sent
    }
}

#[cfg(target_os = "linux")]
mod linux {
    //! `recvmmsg`/`sendmmsg` plumbing. Layouts match the x86-64 / aarch64
    //! Linux ABI (pointer-sized `size_t` fields, 4-byte `socklen_t`).

    use super::MAX_DATAGRAM;
    use std::io;
    use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, UdpSocket};
    use std::os::fd::AsRawFd;

    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;
    /// `MSG_WAITFORONE`: block for the first message only, then drain.
    const MSG_WAITFORONE: i32 = 0x10000;
    const EINTR: i32 = 4;
    const EBADF: i32 = 9;
    const ENOTSOCK: i32 = 88;

    #[repr(C)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    #[repr(C)]
    struct MsgHdr {
        name: *mut u8,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut u8,
        controllen: usize,
        flags: i32,
    }

    #[repr(C)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: u32,
    }

    /// Space for any socket address family (mirrors `sockaddr_storage`).
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
    struct SockAddrStorage {
        bytes: [u8; 128],
    }

    #[repr(C)]
    struct SockAddrIn {
        family: u16,
        port_be: u16,
        addr_be: [u8; 4],
        zero: [u8; 8],
    }

    #[repr(C)]
    struct SockAddrIn6 {
        family: u16,
        port_be: u16,
        flowinfo: u32,
        addr: [u8; 16],
        scope_id: u32,
    }

    extern "C" {
        fn recvmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32, timeout: *mut u8) -> i32;
        fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
    }

    fn decode_addr(storage: &SockAddrStorage, namelen: u32) -> Option<SocketAddr> {
        let family = u16::from_ne_bytes([storage.bytes[0], storage.bytes[1]]);
        match family {
            AF_INET if namelen as usize >= std::mem::size_of::<SockAddrIn>() => {
                let sin: &SockAddrIn = unsafe { &*(storage.bytes.as_ptr() as *const SockAddrIn) };
                Some(SocketAddr::new(
                    IpAddr::V4(Ipv4Addr::from(sin.addr_be)),
                    u16::from_be(sin.port_be),
                ))
            }
            AF_INET6 if namelen as usize >= std::mem::size_of::<SockAddrIn6>() => {
                let sin6: &SockAddrIn6 =
                    unsafe { &*(storage.bytes.as_ptr() as *const SockAddrIn6) };
                Some(SocketAddr::new(
                    IpAddr::V6(Ipv6Addr::from(sin6.addr)),
                    u16::from_be(sin6.port_be),
                ))
            }
            _ => None,
        }
    }

    fn encode_addr(peer: &SocketAddr, storage: &mut SockAddrStorage) -> u32 {
        match peer {
            SocketAddr::V4(v4) => {
                let sin = SockAddrIn {
                    family: AF_INET,
                    port_be: v4.port().to_be(),
                    addr_be: v4.ip().octets(),
                    zero: [0; 8],
                };
                let bytes = unsafe {
                    std::slice::from_raw_parts(
                        (&sin as *const SockAddrIn) as *const u8,
                        std::mem::size_of::<SockAddrIn>(),
                    )
                };
                storage.bytes[..bytes.len()].copy_from_slice(bytes);
                bytes.len() as u32
            }
            SocketAddr::V6(v6) => {
                let sin6 = SockAddrIn6 {
                    family: AF_INET6,
                    port_be: v6.port().to_be(),
                    flowinfo: v6.flowinfo(),
                    addr: v6.ip().octets(),
                    scope_id: v6.scope_id(),
                };
                let bytes = unsafe {
                    std::slice::from_raw_parts(
                        (&sin6 as *const SockAddrIn6) as *const u8,
                        std::mem::size_of::<SockAddrIn6>(),
                    )
                };
                storage.bytes[..bytes.len()].copy_from_slice(bytes);
                bytes.len() as u32
            }
        }
    }

    /// Receive-side scratch reused across calls: the sockaddr slots, the
    /// iovecs, and the mmsghdr array are all wired up **once** (the
    /// buffers they point into are boxed and never move, and the scratch
    /// vectors never reallocate after construction). A fragmented load —
    /// many workers splitting the queue into 1–2-datagram wakeups — pays
    /// thousands of crossings per second, so the per-call cost here must
    /// be a few field resets, not two heap allocations and a full window
    /// rebuild.
    pub(super) struct RecvSys {
        addrs: Vec<SockAddrStorage>,
        iovecs: Vec<IoVec>,
        headers: Vec<MMsgHdr>,
    }

    impl RecvSys {
        pub(super) fn new(capacity: usize) -> Self {
            RecvSys {
                addrs: vec![SockAddrStorage { bytes: [0; 128] }; capacity],
                iovecs: Vec::with_capacity(capacity),
                headers: Vec::with_capacity(capacity),
            }
        }

        /// Builds the iovec/mmsghdr arrays against `bufs` on the first
        /// call; later calls only reset the fields the kernel overwrites.
        fn wire(&mut self, bufs: &mut [Box<[u8; MAX_DATAGRAM]>]) {
            if !self.headers.is_empty() {
                for h in &mut self.headers {
                    h.hdr.namelen = 128;
                    h.hdr.flags = 0;
                    h.len = 0;
                }
                return;
            }
            for b in bufs.iter_mut() {
                self.iovecs.push(IoVec {
                    base: b.as_mut_ptr(),
                    len: MAX_DATAGRAM,
                });
            }
            for i in 0..bufs.len() {
                self.headers.push(MMsgHdr {
                    hdr: MsgHdr {
                        name: self.addrs[i].bytes.as_mut_ptr(),
                        namelen: 128,
                        iov: &mut self.iovecs[i],
                        iovlen: 1,
                        control: std::ptr::null_mut(),
                        controllen: 0,
                        flags: 0,
                    },
                    len: 0,
                });
            }
        }

        pub(super) fn recv(
            &mut self,
            socket: &UdpSocket,
            bufs: &mut [Box<[u8; MAX_DATAGRAM]>],
            meta: &mut Vec<(usize, SocketAddr)>,
        ) -> io::Result<usize> {
            let capacity = bufs.len();
            self.wire(bufs);
            let headers = &mut self.headers;
            let rc = unsafe {
                recvmmsg(
                    socket.as_raw_fd(),
                    headers.as_mut_ptr(),
                    capacity as u32,
                    MSG_WAITFORONE,
                    std::ptr::null_mut(),
                )
            };
            if rc < 0 {
                let err = io::Error::last_os_error();
                return match err.kind() {
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => Ok(0),
                    _ => Err(err),
                };
            }
            let received = rc as usize;
            for (i, header) in headers.iter().take(received).enumerate() {
                // Skip datagrams from an undecodable address family: a
                // DNS server cannot answer a peer it cannot address.
                if let Some(peer) = decode_addr(&self.addrs[i], header.hdr.namelen) {
                    meta.push((header.len as usize, peer));
                }
            }
            Ok(meta.len())
        }
    }

    /// Send-side scratch reused across flushes. Payload pointers change
    /// every flush, so the arrays are re-filled per call — but into
    /// retained capacity, never through the allocator (after the first
    /// flush at a given queue depth).
    #[derive(Default)]
    pub(super) struct SendSys {
        addrs: Vec<SockAddrStorage>,
        iovecs: Vec<IoVec>,
        headers: Vec<MMsgHdr>,
    }

    impl SendSys {
        pub(super) fn send_all(
            &mut self,
            socket: &UdpSocket,
            items: &[(Vec<u8>, SocketAddr)],
        ) -> io::Result<usize> {
            self.addrs
                .resize(items.len(), SockAddrStorage { bytes: [0; 128] });
            self.iovecs.clear();
            self.headers.clear();
            self.iovecs.reserve(items.len());
            self.headers.reserve(items.len());
            for (payload, _) in items {
                self.iovecs.push(IoVec {
                    // sendmmsg never writes through the iov; the mut cast
                    // only satisfies the shared msghdr layout.
                    base: payload.as_ptr() as *mut u8,
                    len: payload.len(),
                });
            }
            for (i, (_, peer)) in items.iter().enumerate() {
                let namelen = encode_addr(peer, &mut self.addrs[i]);
                self.headers.push(MMsgHdr {
                    hdr: MsgHdr {
                        name: self.addrs[i].bytes.as_mut_ptr(),
                        namelen,
                        iov: &mut self.iovecs[i],
                        iovlen: 1,
                        control: std::ptr::null_mut(),
                        controllen: 0,
                        flags: 0,
                    },
                    len: 0,
                });
            }
            // `next` walks the headers, `sent` counts the ones the kernel
            // took. sendmmsg reports an errno only for the first header it
            // is handed (later failures just shorten the count), so an
            // error always belongs to `headers[next]`.
            let (mut next, mut sent) = (0usize, 0usize);
            while next < items.len() {
                let rc = unsafe {
                    sendmmsg(
                        socket.as_raw_fd(),
                        self.headers.as_mut_ptr().add(next),
                        (items.len() - next) as u32,
                        0,
                    )
                };
                if rc < 0 {
                    let err = io::Error::last_os_error();
                    match err.raw_os_error() {
                        Some(EBADF | ENOTSOCK) => return Err(err),
                        Some(EINTR) => {} // retry the same header
                        _ => next += 1,   // this datagram cannot go; the rest can
                    }
                    continue;
                }
                if rc == 0 {
                    break; // no forward progress; avoid spinning
                }
                next += rc as usize;
                sent += rc as usize;
            }
            Ok(sent)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn pair() -> (UdpSocket, UdpSocket, SocketAddr, SocketAddr) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        a.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        b.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let aa = a.local_addr().unwrap();
        let ba = b.local_addr().unwrap();
        (a, b, aa, ba)
    }

    #[test]
    fn batch_send_then_batch_recv_round_trips() {
        let (server, client, server_addr, client_addr) = pair();
        let mut send = SendBatch::new();
        for i in 0..10u8 {
            send.push(vec![i; (i as usize) + 1], server_addr);
        }
        assert_eq!(send.len(), 10);
        assert_eq!(send.flush(&client).unwrap(), 10);
        assert!(send.is_empty());

        let mut recv = RecvBatch::new(16);
        let mut got: Vec<Vec<u8>> = Vec::new();
        while got.len() < 10 {
            let n = recv.recv(&server).unwrap();
            assert!(n > 0, "expected more datagrams, got timeout");
            for i in 0..n {
                let (payload, peer) = recv.datagram(i);
                assert_eq!(peer, client_addr);
                got.push(payload.to_vec());
            }
        }
        // Loopback UDP preserves order in practice, but only contents are
        // contractual: same multiset of payloads.
        got.sort();
        let mut want: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; (i as usize) + 1]).collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn flushed_buffers_come_back_as_spares_up_to_the_batch_width() {
        let (_server, client, server_addr, _ca) = pair();
        let mut send = SendBatch::new();
        for _ in 0..DEFAULT_BATCH + 8 {
            let mut payload = Vec::with_capacity(100);
            payload.push(7);
            send.push(payload, server_addr);
        }
        send.flush(&client).unwrap();
        assert!(send.is_empty());
        for _ in 0..DEFAULT_BATCH {
            let spare = send.spare();
            assert!(spare.is_empty(), "a spare is handed out empty");
            assert_eq!(spare.capacity(), 100, "with the capacity it was sent with");
        }
        assert_ne!(send.spare().capacity(), 100, "the rest were freed");
    }

    #[test]
    fn recv_times_out_empty() {
        let (server, _client, _sa, _ca) = pair();
        let mut recv = RecvBatch::new(4);
        assert_eq!(recv.recv(&server).unwrap(), 0);
    }

    #[test]
    fn oversize_window_handles_partial_batches() {
        let (server, client, server_addr, _ca) = pair();
        client.send_to(b"solo", server_addr).unwrap();
        let mut recv = RecvBatch::new(64);
        let n = recv.recv(&server).unwrap();
        assert_eq!(n, 1);
        assert_eq!(recv.datagram(0).0, b"solo");
    }

    #[test]
    fn max_datagram_payload_survives() {
        let (server, client, server_addr, _ca) = pair();
        let payload = vec![0xAB; MAX_DATAGRAM];
        let mut send = SendBatch::new();
        send.push(payload.clone(), server_addr);
        assert_eq!(send.flush(&client).unwrap(), 1);
        let mut recv = RecvBatch::new(2);
        assert_eq!(recv.recv(&server).unwrap(), 1);
        assert_eq!(recv.datagram(0).0, &payload[..]);
    }

    #[test]
    fn unsendable_datagram_costs_itself_not_the_batch() {
        let (server, client, server_addr, _ca) = pair();
        let mut send = SendBatch::new();
        // UDP source port 0 is legal on the wire; replying to it is EINVAL.
        send.push(b"lost".to_vec(), "127.0.0.1:0".parse().unwrap());
        send.push(b"kept".to_vec(), server_addr);
        assert_eq!(send.flush(&client).unwrap(), 1, "one of two goes out");
        assert!(send.is_empty(), "the queue is cleared either way");
        let mut recv = RecvBatch::new(4);
        assert_eq!(recv.recv(&server).unwrap(), 1);
        assert_eq!(recv.datagram(0).0, b"kept");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn abi_struct_sizes_match_linux() {
        // Pin the repr(C) layouts against the glibc definitions; a drift
        // here corrupts syscall arguments silently.
        assert_eq!(std::mem::size_of::<usize>(), 8, "64-bit only");
        // iovec: 2 pointers. msghdr: 56 bytes on LP64. mmsghdr: 64 (8-pad).
        assert_eq!(std::mem::size_of::<super::linux_test_probe::IoVec>(), 16);
        assert_eq!(std::mem::size_of::<super::linux_test_probe::MsgHdr>(), 56);
        assert_eq!(std::mem::size_of::<super::linux_test_probe::MMsgHdr>(), 64);
    }
}

/// Size probes for the ABI test (the real structs are private to the
/// `linux` module; these mirrors share the field layout).
#[cfg(all(test, target_os = "linux"))]
mod linux_test_probe {
    #[repr(C)]
    pub struct IoVec {
        base: *mut u8,
        len: usize,
    }
    #[repr(C)]
    pub struct MsgHdr {
        name: *mut u8,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut u8,
        controllen: usize,
        flags: i32,
    }
    #[repr(C)]
    pub struct MMsgHdr {
        pub hdr: MsgHdr,
        pub len: u32,
    }
}
