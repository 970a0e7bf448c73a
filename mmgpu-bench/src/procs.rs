//! Child processes and their resources: hermetic spawning, a line
//! protocol with timeouts, guards that reap every child on every exit
//! path, the `/proc` readers behind `cpu_s` and `peak_rss_mb`, and the
//! one scratch directory all temporary stores and outputs live in.

use common::json::Json;
use common::proto::{QueryRequest, QueryResponse};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, ExitStatus, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Environment variables that would change what the program under test
/// does; every child runs without them.
pub const STRIPPED_ENV: [&str; 3] = ["MMGPU_SIM_ENGINE", "MMGPU_SIM_THREADS", "MMGPU_THREADS"];

/// The worker-thread count passed explicitly to every call.
pub const THREADS: usize = 2;

/// Client I/O timeout: a reply slower than this counts as a failed op.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// The bench-owned scratch directory, removed on drop.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Creates `.bench_scratch/<pid>` in the working directory. The path
    /// stays relative (children inherit the working directory), so the
    /// daemon sockets inside it fit the 108-byte limit of a Unix socket
    /// address however deep the checkout lies.
    pub fn create() -> Result<Scratch, String> {
        let root = Path::new(".bench_scratch").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)
            .map_err(|e| format!("cannot create {}: {e}", root.display()))?;
        Ok(Scratch { root })
    }

    /// A fresh, empty subdirectory.
    pub fn dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent); // only succeeds when empty
        }
    }
}

/// A running child of this binary (`mmgpu-bench child ...`) with a piped
/// stdin, stdout read line by line on a helper thread, and stderr in a
/// log file. Dropping it kills and reaps the child.
#[derive(Debug)]
pub struct Proc {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
    log: PathBuf,
}

impl Proc {
    /// Re-executes this binary as `child <args>` in a clean environment.
    pub fn spawn(args: &[String], log: &Path) -> Result<Proc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
        let stderr = std::fs::File::create(log)
            .map_err(|e| format!("cannot create {}: {e}", log.display()))?;
        let mut cmd = Command::new(exe);
        cmd.arg("child").args(args);
        for var in STRIPPED_ENV {
            cmd.env_remove(var);
        }
        cmd.env("NO_COLOR", "1")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(stderr));
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn child: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok(Proc {
            child,
            stdin,
            lines,
            reader: Some(reader),
            log: log.to_path_buf(),
        })
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Writes one line to the child's stdin.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("child stdin is closed")?;
        stdin
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("cannot write to child: {e}"))
    }

    /// The child's next stdout line, waiting at most `timeout`.
    pub fn line(&self, timeout: Duration) -> Result<String, String> {
        match self.lines.recv_timeout(timeout) {
            Ok(line) => Ok(line),
            Err(RecvTimeoutError::Timeout) => Err(format!(
                "child gave no output within {timeout:?}{}",
                self.log_tail()
            )),
            Err(RecvTimeoutError::Disconnected) => {
                Err(format!("child exited early{}", self.log_tail()))
            }
        }
    }

    /// Whether the child is still running.
    pub fn running(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    /// Closes stdin and waits up to `timeout` for the child to exit.
    pub fn wait(&mut self, timeout: Duration) -> Result<ExitStatus, String> {
        self.stdin = None;
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Ok(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err(format!("child did not exit within {timeout:?}")),
                Err(e) => return Err(format!("cannot wait for child: {e}")),
            }
        }
    }

    /// The last lines of the child's stderr log, for error messages.
    pub fn log_tail(&self) -> String {
        let text = std::fs::read_to_string(&self.log).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        let tail = lines[lines.len().saturating_sub(8)..].join("\n  ");
        if tail.is_empty() {
            String::new()
        } else {
            format!(" (stderr of child:\n  {tail})")
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.stdin = None;
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// One persistent connection speaking the daemon's wire protocol: one
/// `QueryRequest` line out, one `QueryResponse` line back.
#[derive(Debug)]
pub struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    /// Connects with [`CLIENT_TIMEOUT`] on every read and write.
    pub fn connect(socket: &Path) -> std::io::Result<Client> {
        let writer = UnixStream::connect(socket)?;
        writer.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        writer.set_write_timeout(Some(CLIENT_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Sends one request and returns the raw response line without its
    /// newline, so callers can time the round trip apart from parsing.
    pub fn send(&mut self, request: &QueryRequest) -> Result<String, String> {
        self.writer
            .write_all(request.to_json().render_jsonl_line().as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) if !line.ends_with('\n') => Err("torn response".to_string()),
            Ok(_) => {
                line.pop();
                Ok(line)
            }
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// Sends one request and parses its response.
    pub fn request(&mut self, request: &QueryRequest) -> Result<QueryResponse, String> {
        parse_response(&self.send(request)?)
    }
}

/// Parses one response line.
pub fn parse_response(line: &str) -> Result<QueryResponse, String> {
    Json::parse(line)
        .map_err(|e| format!("bad response: {e}"))
        .and_then(|j| QueryResponse::from_json(&j))
}

/// A smoke-scale `xp serve` daemon child on a Unix socket. Dropping it
/// asks for a graceful shutdown, then kills and reaps it if needed.
#[derive(Debug)]
pub struct Daemon {
    proc: Proc,
    socket: PathBuf,
}

impl Daemon {
    /// Starts `xp serve --smoke --threads 2` over `store`, recording a
    /// Chrome trace to `trace` (written at shutdown) when given.
    pub fn start(dir: &Path, store: &Path, trace: Option<&Path>) -> Result<Daemon, String> {
        let socket = dir.join("xpd.sock");
        let mut args: Vec<String> = vec![
            "xp".into(),
            "serve".into(),
            "--smoke".into(),
            "--threads".into(),
            THREADS.to_string(),
            "--socket".into(),
            socket.display().to_string(),
            "--store".into(),
            store.display().to_string(),
        ];
        if let Some(trace) = trace {
            args.push("--trace".into());
            args.push(trace.display().to_string());
        }
        let mut proc = Proc::spawn(&args, &dir.join("xpd.log"))?;
        if proc.line(CLIENT_TIMEOUT)? != "ready" {
            return Err("daemon child broke the start protocol".to_string());
        }
        proc.send("go")?;
        Ok(Daemon { proc, socket })
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.proc.pid()
    }

    /// Opens `n` client connections and proves the daemon serves each
    /// with a `health` round trip, so later requests never wait for the
    /// daemon to accept. All connect before any round trip, so one pass
    /// of the daemon's accept loop takes them all. Retries while the
    /// daemon starts.
    pub fn connect(&mut self, n: usize) -> Result<Vec<Client>, String> {
        let deadline = Instant::now() + CLIENT_TIMEOUT;
        let mut clients = Vec::with_capacity(n);
        while clients.len() < n {
            match Client::connect(&self.socket) {
                Ok(client) => clients.push(client),
                Err(e)
                    if matches!(e.kind(), ErrorKind::NotFound | ErrorKind::ConnectionRefused)
                        && Instant::now() < deadline =>
                {
                    if !self.proc.running() {
                        return Err(format!("daemon exited{}", self.proc.log_tail()));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(format!("daemon unreachable: {e}{}", self.proc.log_tail())),
            }
        }
        for client in &mut clients {
            let health = client.request(&QueryRequest::health())?;
            if health.status != "ok" {
                return Err(format!("daemon health: {}", health.status));
            }
        }
        Ok(clients)
    }

    /// Asks the daemon to shut down and waits for a clean exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.stop()
    }

    fn stop(&mut self) -> Result<(), String> {
        if !self.proc.running() {
            return Ok(());
        }
        Client::connect(&self.socket)
            .map_err(|e| format!("cannot send shutdown: {e}"))?
            .request(&QueryRequest::shutdown())?;
        match self.proc.wait(Duration::from_secs(30))? {
            status if status.success() => Ok(()),
            status => Err(format!(
                "daemon exited with {status}{}",
                self.proc.log_tail()
            )),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Best effort; `Proc`'s own drop kills and reaps whatever is left.
        let _ = self.stop();
    }
}

/// User plus system CPU seconds of process `pid`, all threads, from
/// `/proc/<pid>/stat` (fields 14 and 15, in clock ticks of 1/100 s, the
/// fixed `USER_HZ` of the Linux `/proc` interface).
pub fn cpu_secs(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis with field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
