//! The TCP transport and server front end.
//!
//! The target logic runs inside the deterministic simulator, but real
//! clients live on real sockets. [`TcpFabricServer`] bridges the two:
//! an OS acceptor thread owns the listener and per-connection socket
//! threads, shuttling length-prefixed frames through plain channels; a
//! sim main thread polls for new connections and spawns a handler
//! daemon (pinned to core `conn % cores`) whose [`Transport`] reads
//! from and writes to those channels. The target code is identical on
//! both transports — `serve_conn` never knows which wire it is on.
//!
//! Framing: each capsule is prefixed with its length as a `u32`
//! little-endian. The capsule's own magic + checksum catch corruption;
//! the length prefix only delimits.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc as std_mpsc;
use std::sync::Arc;
use std::time::Duration;

use ccnvme_runtime::Ns;
use parking_lot::Mutex;

use crate::error::FabricError;
use crate::target::{Backend, FabricConfig, FabricTarget};
use crate::transport::{Connector, Transport};

/// Largest frame the TCP transport will accept (matches the capsule
/// codec's data cap plus headroom for headers).
const MAX_FRAME: u32 = crate::capsule::MAX_DATA + 16_384;

/// How often the sim main thread polls the pending-connection queue,
/// in real time.
const ACCEPT_POLL: Duration = Duration::from_micros(200);

/// Virtual time charged per accept poll, so sim clocks advance while
/// the server idles.
const ACCEPT_POLL_NS: Ns = 20_000;

fn io_err(e: std::io::Error) -> FabricError {
    FabricError::Io(e.to_string())
}

/// A [`Transport`] over one TCP stream. Blocks in real time.
pub struct TcpTransport {
    stream: TcpStream,
    dead: bool,
}

impl TcpTransport {
    /// Wraps a connected stream.
    pub fn new(stream: TcpStream) -> TcpTransport {
        let _ = stream.set_nodelay(true);
        TcpTransport {
            stream,
            dead: false,
        }
    }

    fn read_exact_tolerant(&mut self, buf: &mut [u8]) -> Result<(), FabricError> {
        // After the first byte of a frame arrives, keep reading through
        // read-timeout ticks until the frame completes — a frame split
        // across segments must not surface as a spurious timeout.
        let mut at = 0;
        while at < buf.len() {
            match self.stream.read(&mut buf[at..]) {
                Ok(0) => return Err(FabricError::Disconnected),
                Ok(n) => at += n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if at == 0 {
                        return Err(FabricError::Timeout);
                    }
                }
                Err(e) => return Err(io_err(e)),
            }
        }
        Ok(())
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), FabricError> {
        if self.dead {
            return Err(FabricError::Disconnected);
        }
        let len = (frame.len() as u32).to_le_bytes();
        let r = self
            .stream
            .write_all(&len)
            .and_then(|()| self.stream.write_all(frame));
        if let Err(e) = r {
            self.dead = true;
            return Err(io_err(e));
        }
        Ok(())
    }

    fn recv(&mut self, timeout_ns: Ns) -> Result<Vec<u8>, FabricError> {
        if self.dead {
            return Err(FabricError::Disconnected);
        }
        let _ = self
            .stream
            .set_read_timeout(Some(Duration::from_nanos(timeout_ns.max(1_000_000))));
        let mut len_buf = [0u8; 4];
        match self.read_exact_tolerant(&mut len_buf) {
            Ok(()) => {}
            Err(FabricError::Timeout) => return Err(FabricError::Timeout),
            Err(e) => {
                self.dead = true;
                return Err(e);
            }
        }
        let len = u32::from_le_bytes(len_buf);
        if len > MAX_FRAME {
            self.dead = true;
            return Err(FabricError::Protocol(format!("frame length {len}")));
        }
        let mut frame = vec![0u8; len as usize];
        if let Err(e) = self.read_exact_tolerant(&mut frame) {
            self.dead = true;
            return Err(e);
        }
        Ok(frame)
    }

    fn close(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        self.dead = true;
    }
}

/// Dials TCP connections to a fixed server address. Backoff sleeps in
/// real time — TCP clients run on OS threads, not sim threads.
pub struct TcpConnector {
    addr: SocketAddr,
}

impl TcpConnector {
    /// A connector for `addr`.
    pub fn new(addr: SocketAddr) -> TcpConnector {
        TcpConnector { addr }
    }
}

impl Connector for TcpConnector {
    fn connect(&mut self) -> Result<Box<dyn Transport>, FabricError> {
        let stream =
            TcpStream::connect_timeout(&self.addr, Duration::from_secs(2)).map_err(io_err)?;
        Ok(Box::new(TcpTransport::new(stream)))
    }

    fn backoff(&self, ns: Ns) {
        std::thread::sleep(Duration::from_nanos(ns));
    }
}

/// A connection accepted by the OS side, waiting for the sim side to
/// adopt it.
struct PendingConn {
    inbox: std_mpsc::Receiver<Vec<u8>>,
    outbox: std_mpsc::Sender<Vec<u8>>,
}

/// The sim-side [`Transport`] of a bridged TCP connection: frames flow
/// through plain channels serviced by the socket threads. `recv` polls
/// with short real sleeps while charging virtual time, so the handler
/// daemon coexists with the rest of the simulation.
struct TcpServerTransport {
    inbox: std_mpsc::Receiver<Vec<u8>>,
    outbox: std_mpsc::Sender<Vec<u8>>,
    dead: bool,
}

impl Transport for TcpServerTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), FabricError> {
        if self.dead {
            return Err(FabricError::Disconnected);
        }
        if self.outbox.send(frame.to_vec()).is_err() {
            self.dead = true;
            return Err(FabricError::Disconnected);
        }
        Ok(())
    }

    fn recv(&mut self, timeout_ns: Ns) -> Result<Vec<u8>, FabricError> {
        if self.dead {
            return Err(FabricError::Disconnected);
        }
        let mut waited: Ns = 0;
        loop {
            match self.inbox.try_recv() {
                Ok(frame) => return Ok(frame),
                Err(std_mpsc::TryRecvError::Disconnected) => {
                    self.dead = true;
                    return Err(FabricError::Disconnected);
                }
                Err(std_mpsc::TryRecvError::Empty) => {
                    if waited >= timeout_ns {
                        return Err(FabricError::Timeout);
                    }
                    std::thread::sleep(ACCEPT_POLL);
                    ccnvme_runtime::delay(ACCEPT_POLL_NS);
                    waited += ACCEPT_POLL_NS;
                }
            }
        }
    }

    fn close(&mut self) {
        self.dead = true;
    }
}

/// A running TCP fabric server: a simulation hosting a target, fed by
/// an OS acceptor thread.
pub struct TcpFabricServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    sim_thread: Option<std::thread::JoinHandle<()>>,
}

impl TcpFabricServer {
    /// Starts a server. `bind` may use port 0 for an ephemeral port —
    /// read the resolved address from [`addr`](Self::addr). `build`
    /// runs on the sim main thread and constructs the backend (device
    /// stack, file system) that the target serves.
    pub fn start(
        bind: &str,
        cores: usize,
        fcfg: FabricConfig,
        build: impl FnOnce() -> Backend + Send + 'static,
    ) -> std::io::Result<TcpFabricServer> {
        let listener = TcpListener::bind(bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let pending: Arc<Mutex<Vec<PendingConn>>> = Arc::new(Mutex::new(Vec::new()));

        // OS acceptor thread: owns the listener, spawns socket threads.
        {
            let stop = Arc::clone(&stop);
            let pending = Arc::clone(&pending);
            std::thread::Builder::new()
                .name("fabric-accept".into())
                .spawn(move || accept_loop(listener, stop, pending))?;
        }

        // Sim main thread: hosts the target and its handler daemons.
        let sim_stop = Arc::clone(&stop);
        let sim_thread = std::thread::Builder::new()
            .name("fabric-sim".into())
            .spawn(move || {
                // Handlers run on cores 0..cores; two extra cores host
                // the backend's device thread and kjournald (the same
                // layout as `StackConfig::sim_cores`).
                let sim_cores = cores.max(1) + 2;
                ccnvme_runtime::run_on(ccnvme_runtime::RuntimeKind::Sim, sim_cores, move || {
                    let target = FabricTarget::new(build(), fcfg);
                    loop {
                        // ord: Relaxed — stop is a standalone shutdown
                        // flag; no other state is published through it.
                        if sim_stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let adopted: Vec<PendingConn> = pending.lock().drain(..).collect();
                        for conn in adopted {
                            let t = Arc::clone(&target);
                            // ord: Relaxed — connection ids only need
                            // uniqueness.
                            let id = t.conn_seq().fetch_add(1, Ordering::Relaxed);
                            let core = (id as usize) % cores.max(1);
                            let mut wire = TcpServerTransport {
                                inbox: conn.inbox,
                                outbox: conn.outbox,
                                dead: false,
                            };
                            ccnvme_runtime::spawn_daemon(
                                &format!("fabric-tcp{id}"),
                                core,
                                move || t.serve_conn(&mut wire, core as u16),
                            );
                        }
                        std::thread::sleep(ACCEPT_POLL);
                        ccnvme_runtime::delay(ACCEPT_POLL_NS);
                    }
                });
            })?;

        Ok(TcpFabricServer {
            addr,
            stop,
            sim_thread: Some(sim_thread),
        })
    }

    /// The bound address (resolved if the bind used port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A connector dialing this server.
    pub fn connector(&self) -> Box<dyn Connector> {
        Box::new(TcpConnector::new(self.addr))
    }

    /// Signals shutdown and joins the simulation thread.
    pub fn stop(mut self) {
        // ord: Relaxed — see the load in the sim main loop.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.sim_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TcpFabricServer {
    fn drop(&mut self) {
        // ord: Relaxed — see the load in the sim main loop.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.sim_thread.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    pending: Arc<Mutex<Vec<PendingConn>>>,
) {
    // ord: Relaxed — standalone shutdown flag.
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let (in_tx, in_rx) = std_mpsc::channel::<Vec<u8>>();
                let (out_tx, out_rx) = std_mpsc::channel::<Vec<u8>>();
                pending.lock().push(PendingConn {
                    inbox: in_rx,
                    outbox: out_tx,
                });
                spawn_socket_threads(stream, in_tx, out_rx);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => break,
        }
    }
}

/// Socket threads: a reader pumping frames socket → inbox, a writer
/// pumping outbox → socket. Either side dying drops its channel end,
/// which the other layers observe as a disconnect.
fn spawn_socket_threads(
    stream: TcpStream,
    in_tx: std_mpsc::Sender<Vec<u8>>,
    out_rx: std_mpsc::Receiver<Vec<u8>>,
) {
    let mut reader = TcpTransport::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = TcpTransport::new(stream);
    let _ = std::thread::Builder::new()
        .name("fabric-sock-rd".into())
        .spawn(move || loop {
            match reader.recv(1_000_000_000) {
                Ok(frame) => {
                    if in_tx.send(frame).is_err() {
                        break;
                    }
                }
                Err(FabricError::Timeout) => continue,
                Err(_) => break,
            }
        });
    let _ = std::thread::Builder::new()
        .name("fabric-sock-wr".into())
        .spawn(move || {
            while let Ok(frame) = out_rx.recv() {
                if writer.send(&frame).is_err() {
                    break;
                }
            }
            writer.close();
        });
}
