//! A minimal metrics HTTP endpoint: Prometheus text and JSON snapshots.
//!
//! Serves two routes from a shared [`obs::MetricsRegistry`]:
//!
//! * `GET /metrics` — Prometheus text exposition format;
//! * `GET /metrics.json` — the same snapshot as a JSON object.
//!
//! Snapshots are taken per request, so a scraper always sees the live
//! counters the serve loop writes. Implemented on a plain
//! `std::net::TcpListener` with HTTP/1.0 close-per-request semantics —
//! enough for `curl` and any Prometheus scraper, with no HTTP dependency.

use std::io::{self, Read, Write};
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use obs::MetricsRegistry;

/// Handle to a spawned metrics endpoint thread. Dropping it (or calling
/// [`MetricsHandle::shutdown`]) stops the accept loop; the non-blocking
/// listener polls its stop flag every 50 ms, bounding shutdown latency.
pub struct MetricsHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
    addr: std::net::SocketAddr,
}

impl MetricsHandle {
    /// The bound address of the endpoint.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Stops the accept loop and joins the thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }
}

impl Drop for MetricsHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Binds `addr` and serves the registry's snapshots until shutdown.
pub fn spawn_metrics_endpoint<A: ToSocketAddrs>(
    addr: A,
    registry: MetricsRegistry,
) -> io::Result<MetricsHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let thread = std::thread::spawn(move || {
        while !stop2.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = serve_request(stream, &registry);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(_) => break,
            }
        }
    });
    Ok(MetricsHandle {
        stop,
        thread: Some(thread),
        addr,
    })
}

fn serve_request(mut stream: std::net::TcpStream, registry: &MetricsRegistry) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    // Read the whole header block, however many segments it arrives in:
    // the route is on its first line, and closing with request bytes still
    // unread would reset the connection under the response.
    let mut buf = [0u8; 1024];
    let mut n = 0;
    while n < buf.len() && !buf[..n].windows(4).any(|w| w == b"\r\n\r\n") {
        match stream.read(&mut buf[n..])? {
            0 => break,
            k => n += k,
        }
    }
    let request = String::from_utf8_lossy(&buf[..n]);
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            registry.snapshot().to_prometheus(),
        ),
        "/metrics.json" => ("200 OK", "application/json", registry.snapshot().to_json()),
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;

    fn get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        let (head, body) = out.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_prometheus_and_json_snapshots() {
        let registry = MetricsRegistry::new();
        registry.counter("dnsd_queries_total").add(3);
        registry.histogram("dnsd_handle_latency_us").record(120);
        let handle = spawn_metrics_endpoint("127.0.0.1:0", registry.clone()).unwrap();
        let addr = handle.local_addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(body.contains("dnsd_queries_total 3"), "{body}");

        // The endpoint snapshots per request: bump and re-scrape.
        registry.counter("dnsd_queries_total").inc();
        let (_, body) = get(addr, "/metrics.json");
        assert!(body.contains("\"dnsd_queries_total\""), "{body}");
        assert!(obs::validate::validate_metrics_json(&body, &["dnsd_queries_total"]).is_ok());

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.0 404"), "{head}");
        handle.shutdown();
    }
}
