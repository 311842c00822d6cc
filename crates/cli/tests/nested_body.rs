//! A deeply nested request body must get a `400`, not a crashed
//! process. The JSON parser recurses once per open bracket, so without
//! its nesting cap 200 000 `[` (200 KB, far below the body limit)
//! overflow an I/O worker's stack and abort `fairrank serve`, and abort
//! `fairrank router`, which parses the body for its ring key before it
//! forwards it. This test sends that body to a real `serve` and to a
//! real `router` in front of it, then checks both still answer
//! `GET /healthz`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Spawn the real binary with `args`, returning the child plus the
/// ephemeral port announced in its stdout banner.
fn spawn_fairrank(args: &[&str]) -> (Child, u16) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fairrank"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning fairrank");
    let mut banner = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut banner)
        .expect("reading the banner");
    let port = banner
        .split("127.0.0.1:")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|token| token.parse().ok())
        .unwrap_or_else(|| panic!("no port in banner: {banner:?}"));
    (child, port)
}

/// Kills the processes when dropped, so a failed assertion leaves none
/// behind.
struct Processes(Vec<Child>);

impl Drop for Processes {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn http(port: u16, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: localhost\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in: {response:?}"));
    let (_, body) = response.split_once("\r\n\r\n").expect("head/body split");
    (status, body.to_string())
}

#[test]
fn deeply_nested_body_gets_400_from_serve_and_router_and_both_survive() {
    let (serve, serve_port) = spawn_fairrank(&["serve", "--port", "0", "--workers", "1"]);
    let mut processes = Processes(vec![serve]);
    let backend = format!("127.0.0.1:{serve_port}");
    let (router, router_port) = spawn_fairrank(&[
        "router",
        "--port",
        "0",
        "--probe-ms",
        "20",
        "--backend",
        &backend,
    ]);
    processes.0.push(router);
    let deadline = Instant::now() + Duration::from_secs(30);
    while !http(router_port, "GET", "/healthz", "")
        .1
        .contains("\"backends_ready\":1")
    {
        assert!(Instant::now() < deadline, "backend never joined");
        std::thread::sleep(Duration::from_millis(20));
    }

    let nested = "[".repeat(200_000);
    for (what, port) in [("router", router_port), ("serve", serve_port)] {
        let (status, body) = http(port, "POST", "/rank", &nested);
        assert_eq!(status, 400, "{what}: {body}");
        assert!(body.contains("nesting too deep"), "{what}: {body}");
    }
    for (what, port) in [("serve", serve_port), ("router", router_port)] {
        let (status, body) = http(port, "GET", "/healthz", "");
        assert_eq!(status, 200, "{what} stopped answering: {body}");
    }
    for child in &mut processes.0 {
        assert!(
            child.try_wait().expect("polling child").is_none(),
            "a process exited"
        );
    }
}
