//! Dependency-free HTTP/1.1 server for the live operator console.
//!
//! [`ObsServer::bind`] takes an address (port 0 picks a free port — the
//! CLI prints the standard `listening on ADDR` line) and a shared
//! [`LiveHub`], and serves read-only views of it on a background thread.
//! The accept loop mirrors `das-core::net`'s deadline-bounded style: the
//! listener is non-blocking and polled under a stop flag, every
//! connection gets read/write timeouts, and request heads are read into a
//! bounded buffer — a malformed, oversized, or slow-loris client costs at
//! most one connection thread for one timeout, never the run.
//!
//! Endpoints:
//!
//! | path | body |
//! |---|---|
//! | `GET /` | embedded HTML console (polls the JSON endpoints) |
//! | `GET /status` | run phase, engine, shard count, big round |
//! | `GET /profile` | per-shard totals, heaviest edges, per-round load |
//! | `GET /metrics` | metrics registry as JSON; `?format=prometheus` for text exposition |
//! | `GET /doubling` | doubling-search attempt log and counters |
//! | `GET /net` | per-link coordinator↔worker traffic |
//! | `GET /jobs` | serve-daemon admission counters (queued/admitted/rejected/completed) |
//! | `GET /events?since=N` | JSONL tail of trace events from cursor `N` (non-numeric `N` → 400) |

use crate::live::LiveHub;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest request head the server will buffer before answering 431.
pub const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Per-connection socket timeout: a client that stalls longer than this
/// (slow-loris) gets dropped.
pub const IO_TIMEOUT: Duration = Duration::from_millis(2_000);

/// Accept-loop poll interval while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// The embedded operator console page served at `/`.
const CONSOLE_HTML: &str = include_str!("console.html");

/// A running live-observability HTTP server.
///
/// Dropping the server stops the accept loop and joins the server thread;
/// in-flight connection threads finish on their own timeouts.
#[derive(Debug)]
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ObsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts serving `hub`.
    ///
    /// # Errors
    /// Returns the bind error if the address is unavailable.
    pub fn bind(addr: &str, hub: Arc<LiveHub>) -> std::io::Result<ObsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("obs-http".to_string())
            .spawn(move || accept_loop(listener, hub, stop_flag))
            .expect("spawn obs server thread");
        Ok(ObsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: TcpListener, hub: Arc<LiveHub>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let hub = Arc::clone(&hub);
                // one thread per connection: a stalled client blocks only
                // itself, and the run never waits on any of this
                let _ = std::thread::Builder::new()
                    .name("obs-conn".to_string())
                    .spawn(move || handle_connection(stream, &hub));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Reads a bounded request head; `None` means malformed/oversized/stalled.
fn read_request_head(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return None, // clipped request
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
                {
                    return String::from_utf8(buf).ok();
                }
                if buf.len() > MAX_REQUEST_BYTES {
                    return None; // oversized head
                }
            }
            Err(_) => return None, // timeout or reset: slow-loris dropped
        }
    }
}

fn handle_connection(mut stream: TcpStream, hub: &LiveHub) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let Some(head) = read_request_head(&mut stream) else {
        respond(&mut stream, 400, "text/plain", "bad request\n", &[]);
        return;
    };
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, target) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        respond(&mut stream, 405, "text/plain", "method not allowed\n", &[]);
        return;
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/" => respond(
            &mut stream,
            200,
            "text/html; charset=utf-8",
            CONSOLE_HTML,
            &[],
        ),
        "/status" => respond(
            &mut stream,
            200,
            "application/json",
            &hub.render_status(),
            &[],
        ),
        "/profile" => respond(
            &mut stream,
            200,
            "application/json",
            &hub.render_profile(),
            &[],
        ),
        "/metrics" => {
            if query_param(query, "format") == Some("prometheus") {
                respond(
                    &mut stream,
                    200,
                    "text/plain; version=0.0.4",
                    &hub.render_metrics_prometheus(),
                    &[],
                );
            } else {
                respond(
                    &mut stream,
                    200,
                    "application/json",
                    &hub.render_metrics_json(),
                    &[],
                );
            }
        }
        "/doubling" => respond(
            &mut stream,
            200,
            "application/json",
            &hub.render_doubling(),
            &[],
        ),
        "/net" => respond(&mut stream, 200, "application/json", &hub.render_net(), &[]),
        "/jobs" => respond(
            &mut stream,
            200,
            "application/json",
            &hub.render_jobs(),
            &[],
        ),
        "/events" => {
            // a missing `since` means "from the start"; a present but
            // non-numeric (or overflowing) one is a client bug and gets a
            // 400, never a silent clamp to 0
            let since = match query_param(query, "since") {
                None => 0,
                Some(v) => match v.parse::<u64>() {
                    Ok(n) => n,
                    Err(_) => {
                        respond(
                            &mut stream,
                            400,
                            "text/plain",
                            "bad since: expected a non-negative integer\n",
                            &[],
                        );
                        return;
                    }
                },
            };
            let (body, next) = hub.render_events_since(since);
            let next_header = format!("X-Obs-Next: {next}");
            respond(
                &mut stream,
                200,
                "application/x-ndjson",
                &body,
                &[&next_header],
            );
        }
        _ => respond(&mut stream, 404, "text/plain", "not found\n", &[]),
    }
}

fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

fn respond(stream: &mut TcpStream, code: u16, content_type: &str, body: &str, extra: &[&str]) {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let mut head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for h in extra {
        head.push_str(h);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn get(addr: SocketAddr, target: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write!(stream, "GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").expect("full response");
        let code = head
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .expect("status code");
        (code, head.to_string(), body.to_string())
    }

    fn test_server() -> (ObsServer, Arc<LiveHub>) {
        let hub = Arc::new(LiveHub::new());
        let server = ObsServer::bind("127.0.0.1:0", Arc::clone(&hub)).unwrap();
        (server, hub)
    }

    #[test]
    fn serves_every_endpoint() {
        let (server, hub) = test_server();
        hub.set_run_info("batched", 2);
        hub.set_phase("execute");
        hub.merge_metrics(&{
            let mut m = crate::MetricsRegistry::new();
            m.inc("exec.delivered", 7);
            m
        });
        let addr = server.local_addr();
        let (code, _, body) = get(addr, "/status");
        assert_eq!(code, 200);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v.get("phase").and_then(Value::as_str), Some("execute"));
        for target in ["/profile", "/doubling", "/net", "/metrics"] {
            let (code, _, body) = get(addr, target);
            assert_eq!(code, 200, "{target}");
            serde_json::from_str::<Value>(&body).expect("JSON body");
        }
        let (code, _, text) = get(addr, "/metrics?format=prometheus");
        assert_eq!(code, 200);
        assert!(text.contains("das_exec_delivered 7"));
        let (code, _, html) = get(addr, "/");
        assert_eq!(code, 200);
        assert!(html.contains("<html"));
        let (code, _, _) = get(addr, "/nope");
        assert_eq!(code, 404);
    }

    #[test]
    fn events_cursor_round_trips_over_http() {
        let (server, hub) = test_server();
        hub.publish_big_round(
            0,
            0,
            &crate::live::BigRoundDelta {
                events: vec!["{\"a\":1}".into(), "{\"a\":2}".into()],
                ..Default::default()
            },
        );
        let (code, head, body) = get(server.local_addr(), "/events?since=0");
        assert_eq!(code, 200);
        assert_eq!(body.lines().count(), 2);
        assert!(head.contains("X-Obs-Next: 2"));
        let (_, head, body) = get(server.local_addr(), "/events?since=2");
        assert!(body.is_empty());
        assert!(head.contains("X-Obs-Next: 2"));
    }

    #[test]
    fn events_since_is_parsed_strictly() {
        let (server, hub) = test_server();
        hub.publish_big_round(
            0,
            0,
            &crate::live::BigRoundDelta {
                events: vec!["{\"a\":1}".into()],
                ..Default::default()
            },
        );
        let addr = server.local_addr();
        // garbage and overflowing cursors are client bugs: 400, not 0
        for target in [
            "/events?since=banana",
            "/events?since=-1",
            "/events?since=1e9",
            "/events?since=99999999999999999999999999",
            "/events?since=",
        ] {
            let (code, _, _) = get(addr, target);
            assert_eq!(code, 400, "{target}");
        }
        // a cursor beyond the newest sequence is valid and yields an
        // empty tail, never a clamped replay
        let (code, head, body) = get(addr, "/events?since=100");
        assert_eq!(code, 200);
        assert!(body.is_empty());
        assert!(head.contains("X-Obs-Next: 1"));
        // missing cursor means "from the start"
        let (code, _, body) = get(addr, "/events");
        assert_eq!(code, 200);
        assert_eq!(body.lines().count(), 1);
        // an oversized query string is still a valid head: parsed, then
        // rejected on the bad cursor rather than crashing the server
        let big = format!("/events?since={}", "9".repeat(4096));
        let (code, _, _) = get(addr, &big);
        assert_eq!(code, 400);
    }

    #[test]
    fn jobs_endpoint_serves_admission_counters() {
        let (server, hub) = test_server();
        hub.publish_jobs(crate::live::JobsLive {
            queued: 1,
            admitted: 5,
            rejected: 2,
            completed: 4,
            failed: 0,
            batches: 2,
            ..Default::default()
        });
        let (code, _, body) = get(server.local_addr(), "/jobs");
        assert_eq!(code, 200);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v.get("admitted").and_then(Value::as_u64), Some(5));
        assert_eq!(v.get("rejected").and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn malformed_and_oversized_requests_get_rejected() {
        let (server, _hub) = test_server();
        let addr = server.local_addr();
        // clipped request: the client hangs up before finishing the head
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /st").unwrap();
        drop(s);
        // oversized head: rejected with 400 once past the cap
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let junk = vec![b'a'; MAX_REQUEST_BYTES + 1024];
        s.write_all(b"GET / HTTP/1.1\r\nX-Junk: ").unwrap();
        s.write_all(&junk).unwrap();
        let mut raw = String::new();
        let _ = s.read_to_string(&mut raw);
        assert!(raw.starts_with("HTTP/1.1 400"), "got: {raw:.40}");
        // non-GET methods are refused
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(b"POST /status HTTP/1.1\r\n\r\n").unwrap();
        let mut raw = String::new();
        let _ = s.read_to_string(&mut raw);
        assert!(raw.starts_with("HTTP/1.1 405"));
        // the server still answers normal requests afterwards
        let (code, _, _) = get(addr, "/status");
        assert_eq!(code, 200);
    }
}
