//! Starting, probing and stopping the unmodified `jitspmm-serve` binary.

use crate::wire::{self, FrameReader};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a server may take to answer its first INFO.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `jitspmm-serve serve` process; killed and reaped on drop if it
/// was not shut down cleanly.
pub struct Server {
    child: Option<Child>,
    pub addr: String,
    /// Spawn until the first successful INFO reply.
    pub setup: Duration,
}

/// A loopback address with a port that was free a moment ago.
fn free_addr() -> Result<String, String> {
    let probe = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind probe: {e}"))?;
    let port = probe.local_addr().map_err(|e| format!("probe addr: {e}"))?.port();
    Ok(format!("127.0.0.1:{port}"))
}

impl Server {
    /// Spawn `bin serve --listen ADDR <args>` and wait for its first INFO.
    pub fn start(bin: &Path, args: &[String]) -> Result<Server, String> {
        let mut last_err = String::new();
        // A port can be taken between the probe and the bind; retry a few.
        for _ in 0..5 {
            let addr = free_addr()?;
            let started = Instant::now();
            let child = Command::new(bin)
                .arg("serve")
                .arg("--listen")
                .arg(&addr)
                .args(args)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
            let mut server = Server { child: Some(child), addr, setup: Duration::ZERO };
            match server.await_first_info(started) {
                Ok(()) => {
                    server.setup = started.elapsed();
                    return Ok(server);
                }
                Err(e) => last_err = e,
            }
        }
        Err(format!("jitspmm-serve did not come up: {last_err}"))
    }

    fn await_first_info(&mut self, started: Instant) -> Result<(), String> {
        loop {
            if let Ok(mut stream) = TcpStream::connect(&self.addr) {
                let _ = stream.set_nodelay(true);
                if info(&mut stream).is_ok() {
                    return Ok(());
                }
            }
            let child = self.child.as_mut().expect("running server");
            if let Ok(Some(status)) = child.try_wait() {
                self.child = None;
                return Err(format!("server exited during start-up: {status}"));
            }
            if started.elapsed() > START_TIMEOUT {
                return Err("timed out waiting for the first INFO".to_string());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    pub fn connect(&self) -> Result<TcpStream, String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        Ok(stream)
    }

    /// Ask the server to stop and wait for it to exit. Every client
    /// connection must be closed first: the server joins its connection
    /// threads before exiting.
    pub fn stop(mut self) -> Result<(), String> {
        let mut stream = self.connect()?;
        stream.write_all(&wire::shutdown()).map_err(|e| format!("send SHUTDOWN: {e}"))?;
        let mut ack = [0u8; 5];
        stream.read_exact(&mut ack).map_err(|e| format!("SHUTDOWN reply: {e}"))?;
        drop(stream);
        let mut child = self.child.take().expect("running server");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server did not exit after SHUTDOWN".to_string());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Send one request and read its reply on a blocking stream.
pub fn call(stream: &mut TcpStream, frame: &[u8]) -> Result<Vec<u8>, String> {
    stream.write_all(frame).map_err(|e| format!("send: {e}"))?;
    let mut reader = FrameReader::default();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        if let Some(payload) = reader.next_frame()? {
            return Ok(payload);
        }
        let n = stream.read(&mut buf).map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        reader.push(&buf[..n]);
    }
}

/// One INFO round trip; returns the status text.
pub fn info(stream: &mut TcpStream) -> Result<String, String> {
    let payload = call(stream, &wire::info())?;
    let body = wire::reply_body(&payload)?;
    Ok(String::from_utf8_lossy(body).into_owned())
}

/// A fresh, empty directory under the run's scratch area.
pub fn fresh_dir(work: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = work.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}
