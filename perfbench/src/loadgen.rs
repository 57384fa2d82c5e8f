//! Protocol-v2 traffic: a windowed closed-loop pass (set-up) and an
//! open-loop generator (measured phases).
//!
//! The open-loop generator sends on its own thread and receives on the
//! calling thread, so a response is timestamped when it arrives rather than
//! when the pacer next wakes.  Requests are pre-encoded frames; the sender
//! only copies a template and patches its request id.  Latency runs from the
//! *scheduled* send time, and how late the sender ran against its schedule is
//! recorded per request.

use fpfa_server::protocol::{
    decode_response_frame, encode_request_frame, read_frame, write_frame, CacheFlavor, FrameBuffer,
    Hello, KernelSource, MapKnobs, MetricsFormat, Request, Response, WireError,
};
use fpfa_server::sys::{Event, Interest, Poller};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How one request ended.  Everything but `Served` is a failed operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Answer {
    /// No response.
    Lost,
    /// Served; the flavour says which cache tier (if any) answered.
    Served(CacheFlavor),
    /// Overloaded, deadline exceeded or shutting down: load was shed.
    Refused,
    /// Any other typed error, or an unexpected response kind.
    Error,
}

impl Answer {
    /// The answer and the program digest a response carries.
    fn of(response: Response) -> (Answer, u64) {
        match response {
            Response::Mapped(summary) => (Answer::Served(summary.cache), summary.digest),
            Response::Error(
                WireError::Overloaded { .. }
                | WireError::DeadlineExceeded { .. }
                | WireError::ShuttingDown,
            ) => (Answer::Refused, 0),
            _ => (Answer::Error, 0),
        }
    }
}

/// The digest each source was served with, checked against the oracle once
/// the measured phases are over.  A source served with two different
/// digests is inconsistent on its own.
#[derive(Default)]
pub struct Digests {
    first: Vec<u64>,
    served: Vec<u64>,
    pub inconsistent: u64,
}

impl Digests {
    fn note(&mut self, template: u32, digest: u64) {
        let t = template as usize;
        if t >= self.first.len() {
            self.first.resize(t + 1, 0);
            self.served.resize(t + 1, 0);
        }
        self.served[t] += 1;
        if self.served[t] == 1 {
            self.first[t] = digest;
        } else if self.first[t] != digest {
            self.inconsistent += 1;
        }
    }

    /// `(template, digest, times served)` of every served source.
    pub fn served(&self) -> impl Iterator<Item = (u32, u64, u64)> + '_ {
        (0..self.first.len())
            .filter(|&t| self.served[t] > 0)
            .map(|t| (t as u32, self.first[t], self.served[t]))
    }
}

/// A pre-encoded `map` request frame (length prefix, request id, body).
pub struct Template {
    frame: Vec<u8>,
}

impl Template {
    pub fn map(name: &str, source: &str) -> Template {
        let body = Request::Map {
            kernel: KernelSource::new(name, source),
            knobs: MapKnobs::default(),
        }
        .encode();
        let mut frame = Vec::with_capacity(12 + body.len());
        frame.extend_from_slice(&((8 + body.len()) as u32).to_le_bytes());
        frame.extend_from_slice(&[0u8; 8]);
        frame.extend_from_slice(&body);
        Template { frame }
    }

    fn append(&self, buf: &mut Vec<u8>, id: u64) {
        let start = buf.len();
        buf.extend_from_slice(&self.frame);
        buf[start + 4..start + 12].copy_from_slice(&id.to_le_bytes());
    }
}

/// One scheduled request of an open-loop phase.
#[derive(Clone, Copy, Debug)]
pub struct Send {
    /// Scheduled send time, nanoseconds after the phase start.
    pub at_ns: u64,
    pub template: u32,
    /// Which of the two load connections carries it.
    pub conn: u8,
}

/// A handshaken protocol-v2 connection.
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut conn = Conn { stream };
        write_frame(&mut conn.stream, &Hello::current().encode()).map_err(|e| e.to_string())?;
        let payload = read_frame(&mut conn.stream)
            .map_err(|e| e.to_string())?
            .ok_or("daemon closed the connection during the handshake")?;
        match Response::decode(&payload) {
            Ok(Response::Hello(_)) => Ok(conn),
            other => Err(format!("handshake refused: {other:?}")),
        }
    }

    /// One control request, answered before the next is sent.
    pub fn call(&mut self, request: &Request) -> Result<Response, String> {
        write_frame(&mut self.stream, &encode_request_frame(0, request))
            .map_err(|e| e.to_string())?;
        let frame = read_frame(&mut self.stream)
            .map_err(|e| e.to_string())?
            .ok_or("daemon closed the control connection")?;
        decode_response_frame(&frame)
            .map(|(_, response)| response)
            .map_err(|e| e.to_string())
    }

    pub fn metrics(&mut self) -> Result<fpfa_obs::Snapshot, String> {
        match self.call(&Request::Metrics {
            format: MetricsFormat::Json,
        })? {
            Response::Metrics { body, .. } => fpfa_obs::Snapshot::from_json(&body),
            other => Err(format!("metrics verb answered {other:?}")),
        }
    }

    pub fn dump(&mut self) -> Result<String, String> {
        match self.call(&Request::Dump)? {
            Response::Dump { json } => Ok(json),
            other => Err(format!("dump verb answered {other:?}")),
        }
    }

    /// Closed-loop pass over `ids` (indices into `templates`), at most
    /// `window` requests in flight (below the daemon's queue depth, so
    /// nothing is shed).  Returns each request's answer.
    pub fn pass(
        &mut self,
        templates: &[Template],
        ids: &[u32],
        window: usize,
        digests: &mut Digests,
    ) -> Result<Vec<Answer>, String> {
        let mut answers = vec![Answer::Lost; ids.len()];
        let mut buf = Vec::new();
        let mut next = 0;
        let mut done = 0;
        while done < ids.len() {
            while next < ids.len() && next - done < window {
                templates[ids[next] as usize].append(&mut buf, next as u64);
                next += 1;
            }
            if !buf.is_empty() {
                self.stream.write_all(&buf).map_err(|e| e.to_string())?;
                buf.clear();
            }
            let frame = read_frame(&mut self.stream)
                .map_err(|e| e.to_string())?
                .ok_or("daemon closed the connection mid-pass")?;
            let (id, response) = decode_response_frame(&frame).map_err(|e| e.to_string())?;
            let index = usize::try_from(id)
                .ok()
                .filter(|&i| i < ids.len())
                .ok_or_else(|| format!("response for unknown request {id}"))?;
            let (answer, digest) = Answer::of(response);
            if let Answer::Served(_) = answer {
                digests.note(ids[index], digest);
            }
            answers[index] = answer;
            done += 1;
        }
        Ok(answers)
    }
}

/// Everything an open-loop phase observed, per request in plan order.
pub struct Phase {
    pub answers: Vec<Answer>,
    /// Microseconds from the scheduled send to the response (NaN when
    /// unanswered).
    pub latency_us: Vec<f32>,
    /// Microseconds the sender ran behind schedule.
    pub lateness_us: Vec<f32>,
}

/// How long unanswered requests are waited for after the last send.
const DRAIN_GRACE: Duration = Duration::from_secs(3);

/// Runs one open-loop phase over the two load connections.  Request ids are
/// `id_base + index`, so ids stay unique over a daemon's life and traced
/// spans can be matched to client-side timings.  With `pin`, both load
/// threads run on the host's last CPU for the phase.
pub fn open_loop(
    conns: &mut [Conn; 2],
    templates: &[Template],
    plan: &[Send],
    id_base: u64,
    digests: &mut Digests,
    pin: bool,
) -> Result<Phase, String> {
    let writers = [
        conns[0].stream.try_clone().map_err(|e| e.to_string())?,
        conns[1].stream.try_clone().map_err(|e| e.to_string())?,
    ];
    let started = Instant::now();
    let sender_done_ns = AtomicU64::new(u64::MAX);
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let _pinned = pin.then(Pinned::last_cpu);
            send_schedule(writers, templates, plan, id_base, started, &sender_done_ns)
        });
        let receipt = {
            let _pinned = pin.then(Pinned::last_cpu);
            receive(conns, plan, id_base, started, &sender_done_ns, digests)
        };
        let lateness_us = sender
            .join()
            .map_err(|_| "sender thread panicked".to_string())??;
        let (answers, latency_us) = receipt?;
        Ok(Phase {
            answers,
            latency_us,
            lateness_us,
        })
    })
}

fn now_ns(started: Instant) -> u64 {
    started.elapsed().as_nanos() as u64
}

fn send_schedule(
    mut writers: [TcpStream; 2],
    templates: &[Template],
    plan: &[Send],
    id_base: u64,
    started: Instant,
    done_ns: &AtomicU64,
) -> Result<Vec<f32>, String> {
    tighten_timer_slack();
    let mut lateness_us = vec![0f32; plan.len()];
    let mut bufs = [Vec::new(), Vec::new()];
    let mut next = 0;
    let outcome = (|| {
        while next < plan.len() {
            let now = now_ns(started);
            let due = plan[next].at_ns;
            if due > now {
                let wait = due - now;
                if wait > 3_000 {
                    std::thread::sleep(Duration::from_nanos(wait - 2_000));
                } else {
                    std::hint::spin_loop();
                }
                continue;
            }
            // Everything due by now leaves in one write per connection.
            while next < plan.len() && plan[next].at_ns <= now {
                let send = plan[next];
                templates[send.template as usize]
                    .append(&mut bufs[send.conn as usize], id_base + next as u64);
                lateness_us[next] = (now - send.at_ns) as f32 / 1e3;
                next += 1;
            }
            for (writer, buf) in writers.iter_mut().zip(bufs.iter_mut()) {
                if !buf.is_empty() {
                    writer.write_all(buf).map_err(|e| format!("send: {e}"))?;
                    buf.clear();
                }
            }
        }
        Ok(())
    })();
    done_ns.store(now_ns(started), Ordering::SeqCst);
    outcome.map(|()| lateness_us)
}

fn receive(
    conns: &mut [Conn; 2],
    plan: &[Send],
    id_base: u64,
    started: Instant,
    done_ns: &AtomicU64,
    digests: &mut Digests,
) -> Result<(Vec<Answer>, Vec<f32>), String> {
    let mut answers = vec![Answer::Lost; plan.len()];
    let mut latency_us = vec![f32::NAN; plan.len()];
    let mut poller = Poller::new().map_err(|e| e.to_string())?;
    for (token, conn) in conns.iter().enumerate() {
        poller
            .register(conn.stream.as_raw_fd(), token + 1, Interest::READ)
            .map_err(|e| e.to_string())?;
    }
    let mut buffers = [FrameBuffer::new(), FrameBuffer::new()];
    let mut scratch = vec![0u8; 64 * 1024];
    let mut events: Vec<Event> = Vec::new();
    let mut count = 0usize;
    let outcome = (|| {
        while count < plan.len() {
            let done = done_ns.load(Ordering::SeqCst);
            if done != u64::MAX && now_ns(started) > done + DRAIN_GRACE.as_nanos() as u64 {
                break;
            }
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .map_err(|e| e.to_string())?;
            for event in &events {
                let index = event.token - 1;
                // Level-triggered readiness: one read never blocks.
                let n = conns[index]
                    .stream
                    .read(&mut scratch)
                    .map_err(|e| format!("receive: {e}"))?;
                if n == 0 {
                    return Err("daemon closed a load connection".to_string());
                }
                let stamp = now_ns(started);
                buffers[index].extend(&scratch[..n]);
                while let Some(frame) = buffers[index].next_frame().map_err(|e| e.to_string())? {
                    let (id, response) = decode_response_frame(frame).map_err(|e| e.to_string())?;
                    let i = id
                        .checked_sub(id_base)
                        .and_then(|i| usize::try_from(i).ok())
                        .filter(|&i| i < plan.len())
                        .ok_or_else(|| format!("response for unknown request {id}"))?;
                    let (answer, digest) = Answer::of(response);
                    if let Answer::Served(_) = answer {
                        digests.note(plan[i].template, digest);
                    }
                    answers[i] = answer;
                    latency_us[i] = stamp.saturating_sub(plan[i].at_ns) as f32 / 1e3;
                    count += 1;
                }
            }
        }
        Ok(())
    })();
    outcome.map(|()| (answers, latency_us))
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A CPU set as the kernel expects it (room for 1024 CPUs).
type CpuMask = [u64; 16];

/// CPUs this process may use (at least 1).
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pins the calling thread to one CPU while alive, and restores its previous
/// affinity on drop.  Does nothing on a single-CPU host.
pub struct Pinned(Option<CpuMask>);

impl Pinned {
    pub fn to(cpu: usize) -> Pinned {
        let mut old: CpuMask = [0; 16];
        // SAFETY: `old` is a writable buffer of exactly the size passed.
        let saved =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), old.as_mut_ptr()) } == 0;
        if cpus() < 2 || cpu >= cpus() || !saved {
            return Pinned(None);
        }
        let mut mask: CpuMask = [0; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of exactly the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) };
        Pinned(Some(old))
    }

    fn last_cpu() -> Pinned {
        Pinned::to(cpus() - 1)
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(old) = &self.0 {
            // SAFETY: `old` is a readable buffer of exactly the size passed.
            unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), old.as_ptr()) };
        }
    }
}

/// Shrinks this thread's timer slack to 1 µs so the pacer's sleeps end on
/// schedule instead of up to 50 µs late.
fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only changes
    // the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
    }
}
