//! The open-loop arrival schedule and the per-connection loop that keeps
//! to it.
//!
//! Requests are timed from the instant they were *due*, not from when they
//! were sent: a response that stalls a connection charges its delay to every
//! request queued behind it on that connection, as it would to independent
//! users arriving on that schedule.

use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::stats::Outcome;

/// What one arrival asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A repeat of warmed request `key`: a release-store hit (a read).
    Hit {
        /// Index into the warmed requests.
        key: usize,
        /// Whether the response carries the graph text.
        return_graph: bool,
    },
    /// A request with a fresh seed: a cold job (a write).
    Cold {
        /// Index of the dataset (tenant).
        dataset: usize,
        /// The fresh request seed.
        seed: u64,
    },
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Position in the schedule.
    pub index: usize,
    /// Offset from the start of the load at which the request is due.
    pub due: Duration,
    /// The client connection that sends it.
    pub conn: usize,
    /// What it asks for.
    pub kind: Kind,
}

/// Shape of an open-loop schedule.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Mean arrival rate, requests per second (Poisson arrivals).
    pub rate: f64,
    /// Number of arrivals.
    pub count: usize,
    /// Share of arrivals that are cold jobs; the count is rounded and exact.
    pub cold_share: f64,
    /// Share of hits that ask for the graph text.
    pub hit_graph_share: f64,
    /// Number of warmed requests hits choose from.
    pub keys: usize,
    /// Number of datasets cold jobs choose from.
    pub datasets: usize,
    /// Client connections, assigned round-robin.
    pub conns: usize,
}

/// Builds the schedule: exponential inter-arrival gaps, an exact number of
/// cold arrivals at seeded positions, and round-robin connections. The same
/// seed always gives the same schedule.
pub fn open_loop(seed: u64, mix: &Mix) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let colds = ((mix.count as f64) * mix.cold_share).round() as usize;
    let mut is_cold = vec![false; mix.count];
    let mut positions: Vec<usize> = (0..mix.count).collect();
    positions.shuffle(&mut rng);
    for &p in &positions[..colds.min(mix.count)] {
        is_cold[p] = true;
    }
    let mut at = 0.0_f64;
    (0..mix.count)
        .map(|index| {
            let u: f64 = rng.gen();
            at += -(1.0 - u).ln() / mix.rate;
            let kind = if is_cold[index] {
                Kind::Cold {
                    dataset: rng.gen_range(0..mix.datasets),
                    seed: fresh_seed(seed, index),
                }
            } else {
                Kind::Hit {
                    key: rng.gen_range(0..mix.keys),
                    return_graph: rng.gen_bool(mix.hit_graph_share),
                }
            };
            Arrival {
                index,
                due: Duration::from_secs_f64(at),
                conn: index % mix.conns,
                kind,
            }
        })
        .collect()
}

/// A seed no warmed request uses: warmed seeds are small integers, fresh
/// ones carry the top bit.
fn fresh_seed(seed: u64, index: usize) -> u64 {
    (1 << 63) | (splitmix(seed ^ (index as u64).rotate_left(32)) >> 1)
}

/// SplitMix64 finaliser: derives independent sub-seeds from one seed.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// What sending an arrival produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Sent {
    /// The request is finished (a hit read in full, or a refusal).
    Done(Outcome),
    /// A job was admitted and must be polled until it completes.
    Pending(u64),
}

/// What one poll of a pending job found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    /// Still queued or running.
    Running,
    /// Finished, with this outcome.
    Done(Outcome),
}

/// How a connection talks to the system under test.
pub trait Exchange {
    /// Sends `arrival`'s request and reads its response.
    fn send(&mut self, arrival: &Arrival) -> Sent;
    /// Polls job `job` (admitted for `arrival`) once.
    fn poll(&mut self, arrival: &Arrival, job: u64) -> Poll;
}

/// The timing of one finished arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// The arrival.
    pub arrival: Arrival,
    /// From when it was due until its response was read (hits) or its job
    /// was seen completed (cold jobs).
    pub latency: Duration,
    /// From when it was due until it was sent: how late the generator ran.
    pub late: Duration,
    /// How it ended.
    pub outcome: Outcome,
}

/// Pacing of the per-connection loop.
#[derive(Debug, Clone, Copy)]
pub struct Pacing {
    /// Interval between polls of one pending job.
    pub poll_every: Duration,
    /// How long after the last due time pending jobs may still finish before
    /// they count as failed.
    pub drain: Duration,
}

/// Poll counts of one connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Polls {
    /// Polls sent.
    pub sent: u64,
    /// Polls that found the job finished.
    pub useful: u64,
}

struct Pending {
    arrival: Arrival,
    job: u64,
    sent_at: Instant,
    next_poll: Instant,
}

/// Runs one connection's share of the schedule in due order. A request
/// goes out at its due time, or as soon as the connection is free if it is
/// already late; pending jobs are polled while the connection waits.
pub fn drive(
    schedule: &[Arrival],
    start: Instant,
    pacing: Pacing,
    exchange: &mut impl Exchange,
) -> (Vec<Record>, Polls) {
    let mut records = Vec::with_capacity(schedule.len());
    let mut polls = Polls::default();
    let mut pending: Vec<Pending> = Vec::new();
    let mut next = 0;
    let last_due = schedule.last().map_or(Duration::ZERO, |a| a.due);
    loop {
        let now = Instant::now();
        if let Some(arrival) = schedule.get(next) {
            let due = start + arrival.due;
            if now >= due {
                next += 1;
                match exchange.send(arrival) {
                    Sent::Done(outcome) => {
                        let done = Instant::now();
                        records.push(record(arrival, due, now, done, outcome));
                    }
                    Sent::Pending(job) => pending.push(Pending {
                        arrival: *arrival,
                        job,
                        sent_at: now,
                        next_poll: Instant::now() + pacing.poll_every,
                    }),
                }
                continue;
            }
        } else if pending.is_empty() {
            break;
        } else if now > start + last_due + pacing.drain {
            for p in pending.drain(..) {
                let due = start + p.arrival.due;
                records.push(record(&p.arrival, due, p.sent_at, now, Outcome::JobFailed));
            }
            break;
        }
        let soonest = pending
            .iter()
            .enumerate()
            .min_by_key(|(_, p)| p.next_poll)
            .map(|(i, p)| (i, p.next_poll));
        if let Some((i, at)) = soonest {
            if now >= at {
                polls.sent += 1;
                let p = &mut pending[i];
                match exchange.poll(&p.arrival, p.job) {
                    Poll::Running => p.next_poll = Instant::now() + pacing.poll_every,
                    Poll::Done(outcome) => {
                        polls.useful += 1;
                        let done = Instant::now();
                        let p = pending.swap_remove(i);
                        let due = start + p.arrival.due;
                        records.push(record(&p.arrival, due, p.sent_at, done, outcome));
                    }
                }
                continue;
            }
        }
        let wake = [
            schedule.get(next).map(|a| start + a.due),
            soonest.map(|(_, at)| at),
        ]
        .into_iter()
        .flatten()
        .min()
        .unwrap_or(now);
        if wake > now {
            thread::sleep(wake - now);
        }
    }
    (records, polls)
}

fn record(
    arrival: &Arrival,
    due: Instant,
    sent: Instant,
    done: Instant,
    outcome: Outcome,
) -> Record {
    Record {
        arrival: *arrival,
        latency: done.saturating_duration_since(due),
        late: sent.saturating_duration_since(due),
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> Mix {
        Mix {
            rate: 50.0,
            count: 500,
            cold_share: 0.1,
            hit_graph_share: 0.5,
            keys: 16,
            datasets: 2,
            conns: 2,
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_schedule() {
        let a = open_loop(7, &mix());
        assert_eq!(a, open_loop(7, &mix()));
        assert_ne!(a, open_loop(8, &mix()));
        assert_eq!(a.len(), 500);
        let colds = a
            .iter()
            .filter(|x| matches!(x.kind, Kind::Cold { .. }))
            .count();
        assert_eq!(colds, 50, "the cold count is exact, not sampled");
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert_eq!(a.iter().filter(|x| x.conn == 0).count(), 250);
        // Mean gap close to 1/rate: 500 arrivals at 50/s span about 10 s.
        let span = a.last().unwrap().due.as_secs_f64();
        assert!((7.0..13.0).contains(&span), "span {span}");
    }

    #[test]
    fn fresh_seeds_never_collide_with_warmed_ones() {
        let a = open_loop(3, &mix());
        let mut seeds: Vec<u64> = a
            .iter()
            .filter_map(|x| match x.kind {
                Kind::Cold { seed, .. } => Some(seed),
                Kind::Hit { .. } => None,
            })
            .collect();
        assert!(seeds.iter().all(|s| *s >= 1 << 63));
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 50);
    }

    /// Answers hits immediately, except that the first response stalls;
    /// cold jobs finish on their third poll.
    struct Stalling {
        stall: Duration,
        sends: usize,
        polls: usize,
    }

    impl Exchange for Stalling {
        fn send(&mut self, arrival: &Arrival) -> Sent {
            self.sends += 1;
            if self.sends == 1 {
                thread::sleep(self.stall);
            }
            match arrival.kind {
                Kind::Hit { .. } => Sent::Done(Outcome::Ok),
                Kind::Cold { .. } => Sent::Pending(arrival.index as u64),
            }
        }

        fn poll(&mut self, _arrival: &Arrival, _job: u64) -> Poll {
            self.polls += 1;
            if self.polls >= 3 {
                Poll::Done(Outcome::Ok)
            } else {
                Poll::Running
            }
        }
    }

    fn hit(index: usize, due_ms: u64) -> Arrival {
        Arrival {
            index,
            due: Duration::from_millis(due_ms),
            conn: 0,
            kind: Kind::Hit {
                key: 0,
                return_graph: false,
            },
        }
    }

    #[test]
    fn a_stalled_response_charges_the_requests_queued_behind_it() {
        let stall = Duration::from_millis(60);
        let schedule = [hit(0, 0), hit(1, 5), hit(2, 10)];
        let mut exchange = Stalling {
            stall,
            sends: 0,
            polls: 0,
        };
        let pacing = Pacing {
            poll_every: Duration::from_millis(1),
            drain: Duration::from_secs(5),
        };
        let (records, _) = drive(&schedule, Instant::now(), pacing, &mut exchange);
        assert_eq!(records.len(), 3);
        assert!(records[0].latency >= stall);
        // Requests 1 and 2 were due 5 and 10 ms in but could only go out
        // when the stalled response ended at 60 ms: they are charged the
        // wait (about 55 and 50 ms), not just their own short service time.
        assert!(records[1].latency >= stall - Duration::from_millis(5));
        assert!(records[2].latency >= stall - Duration::from_millis(10));
        assert!(records[1].late >= stall - Duration::from_millis(5));
    }

    #[test]
    fn pending_jobs_are_polled_to_completion_between_requests() {
        let cold = Arrival {
            index: 0,
            due: Duration::ZERO,
            conn: 0,
            kind: Kind::Cold {
                dataset: 0,
                seed: 1 << 63,
            },
        };
        let schedule = [cold, hit(1, 1)];
        let mut exchange = Stalling {
            stall: Duration::ZERO,
            sends: 0,
            polls: 0,
        };
        let pacing = Pacing {
            poll_every: Duration::from_millis(2),
            drain: Duration::from_secs(5),
        };
        let (records, polls) = drive(&schedule, Instant::now(), pacing, &mut exchange);
        assert_eq!(records.len(), 2);
        assert_eq!(polls, Polls { sent: 3, useful: 1 });
        let cold = records.iter().find(|r| r.arrival.index == 0).unwrap();
        assert!(
            cold.latency >= Duration::from_millis(6),
            "three polls 2 ms apart"
        );
        assert!(records.iter().all(|r| r.outcome == Outcome::Ok));
    }

    #[test]
    fn jobs_still_pending_after_the_drain_window_fail() {
        struct Never;
        impl Exchange for Never {
            fn send(&mut self, arrival: &Arrival) -> Sent {
                Sent::Pending(arrival.index as u64)
            }
            fn poll(&mut self, _: &Arrival, _: u64) -> Poll {
                Poll::Running
            }
        }
        let cold = Arrival {
            index: 0,
            due: Duration::ZERO,
            conn: 0,
            kind: Kind::Cold {
                dataset: 0,
                seed: 1 << 63,
            },
        };
        let pacing = Pacing {
            poll_every: Duration::from_millis(1),
            drain: Duration::from_millis(20),
        };
        let (records, _) = drive(&[cold], Instant::now(), pacing, &mut Never);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].outcome, Outcome::JobFailed);
    }
}
