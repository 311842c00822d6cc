//! A minimal keep-alive HTTP/1.1 client: one connection, one request in
//! flight, `content-length` framing only (all the server sends).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest the client waits for any single read before the request
/// counts as timed out.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One keep-alive connection, reopened after an error or a
/// `connection: close` response.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    request: Vec<u8>,
    response: Vec<u8>,
    body_start: usize,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            stream: None,
            request: Vec::new(),
            response: Vec::new(),
            body_start: 0,
        }
    }

    /// Send one request and return its status; the body is then
    /// available from [`Client::body`]. Any transport error drops the
    /// connection, so the next call reconnects.
    pub fn send(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<u16> {
        let result = self.exchange(method, path, body);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    /// Body of the last successful response.
    pub fn body(&self) -> &[u8] {
        &self.response[self.body_start..]
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<u16> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(READ_TIMEOUT))?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        self.request.clear();
        write!(
            self.request,
            "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )?;
        self.request.extend_from_slice(body);
        stream.write_all(&self.request)?;

        self.response.clear();
        let head_end = loop {
            if let Some(end) = find(&self.response, b"\r\n\r\n") {
                break end + 4;
            }
            read_more(stream, &mut self.response)?;
        };
        let head = std::str::from_utf8(&self.response[..head_end])
            .map_err(|_| invalid("response head is not utf-8"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("malformed status line"))?;
        let mut length = None;
        let mut close = false;
        for line in head.split("\r\n").skip(1) {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let length = length.ok_or_else(|| invalid("response without content-length"))?;
        while self.response.len() < head_end + length {
            read_more(stream, &mut self.response)?;
        }
        self.response.truncate(head_end + length);
        self.body_start = head_end;
        if close {
            self.stream = None;
        }
        Ok(status)
    }
}

fn read_more(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut chunk = [0u8; 64 * 1024];
    let n = stream.read(&mut chunk)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    buf.extend_from_slice(&chunk[..n]);
    Ok(())
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}
