//! The benchmark's own keep-alive HTTP/1.1 client.
//!
//! It shares no code with `hpcarbon_server`, so a change under
//! `crates/server` cannot move the measuring tool. One persistent
//! connection per client; each call writes one request and reads one
//! `Content-Length` response. Callers time a call from before the write
//! to after the last body byte, and count a non-2xx status or any
//! transport error as a failure.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
}

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Response {
    pub fn is_2xx(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
            out: Vec::with_capacity(4096),
        })
    }

    /// The exact bytes of one request, as written on the wire.
    pub fn encode(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(body.len() + 128);
        encode_into(&mut out, method, path, body);
        out
    }

    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.call("GET", path, b"")
    }

    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<Response> {
        self.call("POST", path, body)
    }

    fn call(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        self.out.clear();
        encode_into(&mut self.out, method, path, body);
        self.writer.write_all(&self.out)?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the status line",
            ));
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length: Option<usize> = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the response head"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    length = Some(
                        value
                            .trim()
                            .parse()
                            .map_err(|_| bad("bad content-length"))?,
                    );
                }
            }
        }
        let length = length.ok_or_else(|| bad("response without content-length"))?;
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok(Response { status, body })
    }
}

fn encode_into(out: &mut Vec<u8>, method: &str, path: &str, body: &[u8]) {
    out.extend_from_slice(method.as_bytes());
    out.push(b' ');
    out.extend_from_slice(path.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nhost: bench\r\n");
    if !body.is_empty() {
        out.extend_from_slice(b"content-type: application/json\r\n");
    }
    out.extend_from_slice(format!("content-length: {}\r\n\r\n", body.len()).as_bytes());
    out.extend_from_slice(body);
}
