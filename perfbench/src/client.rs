//! The server under test as a child process, and line-protocol clients.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// How long a client waits for one response before counting a timeout.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `slcs serve`. Dropping it kills and reaps the process, so
/// a failed or panicking run never leaves a server behind.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `bin serve --addr 127.0.0.1:0` in `root` with every
    /// `SLCS_*` variable removed from its environment, and parses the
    /// bound address from its banner.
    pub fn spawn(bin: &Path, root: &Path) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0"])
            .current_dir(root)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("SLCS_") {
                cmd.env_remove(key);
            }
        }
        let mut child = cmd.spawn().map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        // PANIC: stdout was requested as a pipe just above.
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .strip_prefix("slcs engine listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server { child, _stdout: stdout, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server banner not understood: {banner:?}"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("cannot read the server's /proc status: {e}"))?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or("no VmHWM line in the server's /proc status")?;
        Ok(kib / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(Conn { reader: BufReader::with_capacity(1 << 16, stream), writer })
    }

    /// Sends one request line (newline included) and reads one response
    /// line into `response`, newline stripped. A closed connection is
    /// an `UnexpectedEof` error.
    pub fn call(&mut self, line: &[u8], response: &mut String) -> std::io::Result<()> {
        self.writer.write_all(line)?;
        response.clear();
        if self.reader.read_line(response)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        if response.ends_with('\n') {
            response.pop();
        }
        Ok(())
    }

    /// Sends a command whose response ends with a `# EOF` line.
    pub fn call_multiline(&mut self, command: &str) -> std::io::Result<String> {
        self.writer.write_all(format!("{command}\n").as_bytes())?;
        let mut out = String::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            if line.trim_end() == "# EOF" {
                return Ok(out);
            }
            out.push_str(&line);
        }
    }

    /// Reads whatever is left and closes the connection.
    pub fn quit(mut self) {
        let _ = self.writer.write_all(b"QUIT\n");
        let _ = self.reader.read_to_end(&mut Vec::new());
    }
}

/// The counters read from STATS and METRICS at one moment.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub values: HashMap<String, f64>,
}

impl Counters {
    pub fn read(conn: &mut Conn) -> Result<Counters, String> {
        let mut stats = String::new();
        conn.call(b"STATS\n", &mut stats).map_err(|e| format!("STATS failed: {e}"))?;
        let metrics = conn.call_multiline("METRICS").map_err(|e| format!("METRICS failed: {e}"))?;
        Ok(Counters::parse(&stats, &metrics))
    }

    /// Numeric STATS fields under their own names, the `dispatch=`
    /// counts as `dispatch.<reason>`, and every unlabelled METRICS
    /// sample plus the per-phase worker totals `pool_ns.<phase>`.
    pub fn parse(stats: &str, metrics: &str) -> Counters {
        let mut values = HashMap::new();
        for field in stats.split_whitespace().skip(1) {
            let Some((key, value)) = field.split_once('=') else { continue };
            if key == "dispatch" {
                for entry in value.split(',') {
                    if let Some((reason, n)) = entry.split_once(':') {
                        if let Ok(n) = n.parse() {
                            values.insert(format!("dispatch.{reason}"), n);
                        }
                    }
                }
            } else if let Ok(v) = value.parse() {
                values.insert(key.to_string(), v);
            }
        }
        for line in metrics.lines().filter(|l| !l.starts_with('#')) {
            let Some((name, value)) = line.rsplit_once(' ') else { continue };
            let Ok(value) = value.parse::<f64>() else { continue };
            if let Some(labels) = name.strip_prefix("slcs_pool_worker_ns_total{") {
                if let Some(phase) =
                    labels.split("phase=\"").nth(1).and_then(|p| p.split('"').next())
                {
                    *values.entry(format!("pool_ns.{phase}")).or_insert(0.0) += value;
                }
            } else if !name.contains('{') {
                values.insert(name.to_string(), value);
            }
        }
        Counters { values }
    }

    pub fn get(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }

    /// `self[key] - before[key]`.
    pub fn delta(&self, before: &Counters, key: &str) -> f64 {
        self.get(key) - before.get(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stats_and_metrics() {
        let stats = "OK submitted=5 hits=3 misses=2 dispatch=grid_par:4,cache_hit:1 simd=avx2 alloc_installed=1";
        let metrics = "# TYPE slcs_pool_steals_total counter\nslcs_pool_steals_total 7\n\
                       slcs_pool_worker_ns_total{worker=\"0\",phase=\"barrier\"} 10\n\
                       slcs_pool_worker_ns_total{worker=\"1\",phase=\"barrier\"} 5\n";
        let c = Counters::parse(stats, metrics);
        assert_eq!(c.get("submitted"), 5.0);
        assert_eq!(c.get("dispatch.grid_par"), 4.0);
        assert_eq!(c.get("dispatch.cache_hit"), 1.0);
        assert_eq!(c.get("slcs_pool_steals_total"), 7.0);
        assert_eq!(c.get("pool_ns.barrier"), 15.0);
        assert_eq!(c.get("alloc_installed"), 1.0);
        assert_eq!(c.get("simd"), 0.0);
    }
}
