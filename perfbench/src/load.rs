//! Load from one process: an open-loop generator that times every request
//! from its scheduled send time, a closed-loop generator over pipelined
//! connections that gives capacity, and the resilient client for untimed
//! traffic.

use crate::util::ms;
use rrre_client::pipeline::{Pipelined, PipelinedClient};
use rrre_client::{Client, ClientConfig};
use rrre_wire::{Request, Response};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long either generator waits for one response before giving up.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// An open-loop phase: request `i` is due at `start + i / rate`, whatever
/// happened to the requests before it.
pub struct OpenLoop {
    /// Response `i`, in request order.
    pub responses: Vec<Response>,
    /// Latency of request `i` in ms, from its due time to its response.
    pub latency_ms: Vec<f64>,
    /// How late the generator sent request `i`, in ms.
    pub late_ms: Vec<f64>,
}

/// Runs `requests` open loop at `rate` per second over one pipelined
/// connection: one thread sends on schedule, the calling thread reads.
/// Because latency counts from the due time, a send the generator made late
/// is charged in full, never hidden (no coordinated omission).
pub fn open_loop(addr: &str, requests: &[Request], rate: f64) -> io::Result<OpenLoop> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
    let mut writer = stream.try_clone()?;
    let lines: Vec<Vec<u8>> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut r = r.clone();
            r.id = Some(i as u64);
            let mut line = serde_json::to_string(&r).expect("requests serialise");
            line.push('\n');
            line.into_bytes()
        })
        .collect();
    let n = lines.len();
    let start = Instant::now() + Duration::from_millis(2);
    let due = move |i: usize| start + Duration::from_secs_f64(i as f64 / rate);

    std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> io::Result<Vec<f64>> {
            let mut late = Vec::with_capacity(n);
            for (i, line) in lines.iter().enumerate() {
                let at = due(i);
                if let Some(wait) = at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                late.push(ms(Instant::now().saturating_duration_since(at)));
                writer.write_all(line)?;
            }
            Ok(late)
        });

        let mut responses: Vec<Option<Response>> = vec![None; n];
        let mut latency_ms = vec![0.0; n];
        let mut reader = BufReader::new(&stream);
        let mut line = String::new();
        let mut received = 0;
        let read_result: io::Result<()> = (|| {
            while received < n {
                line.clear();
                if reader.read_line(&mut line)? == 0 {
                    return Err(io::Error::other("server closed the connection mid-phase"));
                }
                let at = Instant::now();
                let resp: Response = serde_json::from_str(line.trim())
                    .map_err(|e| io::Error::other(format!("undecodable response: {e}")))?;
                let id = resp
                    .id
                    .map(|id| id as usize)
                    .filter(|&id| id < n && responses[id].is_none());
                let Some(id) = id else {
                    return Err(io::Error::other(format!(
                        "unexpected response id {:?}",
                        resp.id
                    )));
                };
                latency_ms[id] = ms(at.saturating_duration_since(due(id)));
                responses[id] = Some(resp);
                received += 1;
            }
            Ok(())
        })();
        if read_result.is_err() {
            // Unblock the sender if it is still writing.
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let late_ms = sender.join().expect("sender thread panicked")?;
        read_result?;
        Ok(OpenLoop {
            responses: responses.into_iter().map(Option::unwrap).collect(),
            latency_ms,
            late_ms,
        })
    })
}

/// A closed-loop phase: `conns` connections, each keeping `window`
/// requests in flight and sending the next as soon as one is answered.
pub struct ClosedLoop {
    /// Response `i`, in request order.
    pub responses: Vec<Response>,
    /// When each response arrived, in arrival order, from the phase start.
    pub completions: Vec<Duration>,
}

impl ClosedLoop {
    /// Completions per second in each of `windows` consecutive runs of
    /// equally many completions.
    pub fn window_rates(&self, windows: usize) -> Vec<f64> {
        let per = (self.completions.len() / windows).max(1);
        let mut rates = Vec::new();
        let mut from = Duration::ZERO;
        for end in (per..=self.completions.len()).step_by(per) {
            let to = self.completions[end - 1];
            rates.push(per as f64 / (to - from).as_secs_f64());
            from = to;
        }
        rates
    }
}

/// Runs `requests` closed loop over `conns` pipelined connections of the
/// client crate, one thread each, with `window` requests in flight per
/// connection: the engine's queue always has work, so this measures
/// capacity, not a round trip.
pub fn closed_loop(
    addr: &str,
    requests: &[Request],
    conns: usize,
    window: usize,
) -> io::Result<ClosedLoop> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Response>>> = requests.iter().map(|_| Mutex::new(None)).collect();
    let completions = Mutex::new(Vec::with_capacity(requests.len()));
    let start = Instant::now();
    std::thread::scope(|scope| -> io::Result<()> {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                scope.spawn(|| -> io::Result<()> {
                    let mut conn = PipelinedClient::connect(addr, RESPONSE_TIMEOUT)?;
                    let mut in_flight = 0;
                    loop {
                        while in_flight < window {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= requests.len() {
                                break;
                            }
                            conn.send(requests[i].clone().with_id(i as u64))?;
                            in_flight += 1;
                        }
                        if in_flight == 0 {
                            return Ok(());
                        }
                        let resp = match conn.recv(RESPONSE_TIMEOUT)? {
                            Pipelined::Response(resp) => resp,
                            Pipelined::Unmatched(resp) => {
                                return Err(io::Error::other(format!(
                                    "unexpected response id {:?}",
                                    resp.id
                                )))
                            }
                        };
                        completions.lock().unwrap().push(start.elapsed());
                        in_flight -= 1;
                        let i = resp.id.expect("matched responses carry their id") as usize;
                        *slots[i].lock().unwrap() = Some(resp);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("closed-loop thread panicked")?;
        }
        Ok(())
    })?;
    let mut completions = completions.into_inner().unwrap();
    completions.sort();
    let responses = slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("every request answered"))
        .collect();
    Ok(ClosedLoop {
        responses,
        completions,
    })
}

/// Sends `requests` one at a time through the resilient client, untimed
/// (the warm-up); returns the outcomes and the retries the client made.
pub fn sequential(addr: &str, requests: &[Request]) -> (Vec<Result<Response, String>>, u64) {
    let client = Client::new(
        vec![addr.to_string()],
        ClientConfig {
            pool_per_replica: 1,
            request_timeout: RESPONSE_TIMEOUT,
            ..ClientConfig::default()
        },
    );
    let out = requests
        .iter()
        .map(|r| client.request(r.clone()).map_err(|e| e.to_string()))
        .collect();
    let retries = client.snapshot().retries;
    client.shutdown();
    (out, retries)
}
