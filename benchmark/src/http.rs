//! Minimal blocking HTTP/1.1 client. `deepdive serve` answers one request
//! per connection and closes it, so a request is: connect, write, read to
//! end of stream.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Response {
    pub status: u16,
    pub body: String,
}

pub fn get(addr: SocketAddr, path: &str, timeout: Duration) -> Result<Response, String> {
    request(addr, "GET", path, "", timeout)
}

pub fn post(
    addr: SocketAddr,
    path: &str,
    body: &str,
    timeout: Duration,
) -> Result<Response, String> {
    request(addr, "POST", path, body, timeout)
}

fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> Result<Response, String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect_timeout(&addr, timeout).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    stream.set_read_timeout(Some(timeout)).map_err(io)?;
    stream.set_write_timeout(Some(timeout)).map_err(io)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    // One write, so the request is one segment and the server never waits
    // on a body that trails its headers.
    stream.write_all((head + body).as_bytes()).map_err(io)?;
    let mut raw = Vec::with_capacity(16 * 1024);
    stream.read_to_end(&mut raw).map_err(io)?;
    let text = String::from_utf8(raw).map_err(|e| format!("{method} {path}: {e}"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: response has no header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: malformed status line"))?;
    Ok(Response {
        status,
        body: body.to_string(),
    })
}
