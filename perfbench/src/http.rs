//! A minimal HTTP/1.1 keep-alive client over `std::net::TcpStream`.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest a single response may take before the exchange counts as an I/O
/// error.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A response.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Body, decoded as UTF-8.
    pub body: String,
}

/// One client connection, reopened transparently after the server closes it.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
}

impl Client {
    /// A client for `addr`; connects on first use.
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, stream: None }
    }

    /// Sends one request and reads the full response. Only a `GET` on a
    /// reused connection is retried, once, on a fresh connection (the
    /// server may have closed an idle one); a `POST` is never sent twice.
    pub fn call(&mut self, method: &str, path: &str, body: Option<&str>) -> io::Result<Reply> {
        let reused = self.stream.is_some();
        let mut result = self.exchange(method, path, body);
        if result.is_err() {
            self.stream = None;
            if reused && method == "GET" {
                result = self.exchange(method, path, body);
            }
        }
        result
    }

    fn exchange(&mut self, method: &str, path: &str, body: Option<&str>) -> io::Result<Reply> {
        let reader = match &mut self.stream {
            Some(reader) => reader,
            None => {
                let stream = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(IO_TIMEOUT))?;
                stream.set_write_timeout(Some(IO_TIMEOUT))?;
                self.stream.insert(BufReader::new(stream))
            }
        };
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let stream = reader.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;

        let mut line = String::new();
        reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad(&format!("bad status line {line:?}")))?;
        let mut length = 0usize;
        let mut close = false;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the response head"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                return Err(bad(&format!("bad header {header:?}")));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .parse()
                    .map_err(|_| bad(&format!("bad content-length {value:?}")))?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let mut bytes = vec![0u8; length];
        reader.read_exact(&mut bytes)?;
        if close {
            self.stream = None;
        }
        let body = String::from_utf8(bytes).map_err(|_| bad("response body is not UTF-8"))?;
        Ok(Reply { status, body })
    }
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}
