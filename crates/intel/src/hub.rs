//! Epoch-based atomic snapshot publication.
//!
//! The streaming engine's aligned-marker snapshots republish a fresh
//! [`IntelSnapshot`] mid-run; query threads must keep answering from a
//! consistent view the whole time. The contract:
//!
//! * **Readers take zero locks on the hot path.** [`IntelReader::current`]
//!   is one `Acquire` load of the epoch counter compared against the
//!   reader's thread-local cache; only when the epoch actually moved does
//!   the reader touch the publish-side mutex to clone the new `Arc`.
//! * **Publishes are atomic.** A reader observes either the old snapshot
//!   or the new one, never a mix — snapshots are immutable and swapped
//!   whole.
//! * **Epochs are monotone.** Readers can detect a republish (and e.g.
//!   invalidate negative caches) by watching
//!   [`IntelReader::epoch_seen`].

use crate::snapshot::IntelSnapshot;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
struct HubInner {
    /// Bumped *after* the slot is swapped; 0 = nothing published yet.
    epoch: AtomicU64,
    slot: Mutex<Option<Arc<IntelSnapshot>>>,
    /// When the slot was last swapped — the serve `health` verb reports
    /// its elapsed as the epoch age. Off the hot path (publishes only).
    published_at: Mutex<Option<Instant>>,
}

/// The writer-side handle: publish snapshots, mint readers.
#[derive(Debug, Clone, Default)]
pub struct IntelHub {
    inner: Arc<HubInner>,
}

impl IntelHub {
    /// A hub with nothing published yet (readers see `None`).
    pub fn new() -> IntelHub {
        IntelHub::default()
    }

    /// A hub whose epoch counter starts at `epoch` with nothing published
    /// yet — how a resumed server re-enters the epoch sequence recorded in
    /// its checkpoint: seed with `checkpoint_epoch - 1` and the first
    /// republish lands on `checkpoint_epoch`.
    pub fn with_epoch(epoch: u64) -> IntelHub {
        let hub = IntelHub::default();
        hub.inner.epoch.store(epoch, Ordering::Release);
        hub
    }

    /// Publish a snapshot, returning the new epoch (≥ 1).
    pub fn publish(&self, snap: IntelSnapshot) -> u64 {
        self.publish_arc(Arc::new(snap))
    }

    /// Publish an already-shared snapshot.
    pub fn publish_arc(&self, snap: Arc<IntelSnapshot>) -> u64 {
        *self.inner.slot.lock() = Some(snap);
        *self.inner.published_at.lock() = Some(Instant::now());
        // Release-bump after the swap: a reader that sees the new epoch is
        // guaranteed to find (at least) this snapshot in the slot.
        self.inner.epoch.fetch_add(1, Ordering::Release) + 1
    }

    /// Time since the last publish (`None` before the first). Not the hot
    /// path: takes the publish-side lock.
    pub fn epoch_age(&self) -> Option<Duration> {
        self.inner.published_at.lock().map(|t| t.elapsed())
    }

    /// The current epoch (0 until the first publish).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    /// The latest snapshot, if any (locks; not the hot path).
    pub fn latest(&self) -> Option<Arc<IntelSnapshot>> {
        self.inner.slot.lock().clone()
    }

    /// Mint a reader. Readers are independent — each caches its own
    /// `Arc`, so handing one to every serving thread keeps the hot path
    /// contention-free.
    pub fn reader(&self) -> IntelReader {
        IntelReader {
            inner: Arc::clone(&self.inner),
            cached: None,
            seen: 0,
        }
    }
}

/// A reading handle with a thread-cached snapshot.
#[derive(Debug, Clone)]
pub struct IntelReader {
    inner: Arc<HubInner>,
    cached: Option<Arc<IntelSnapshot>>,
    seen: u64,
}

impl IntelReader {
    /// The snapshot to answer from right now. Lock-free unless a
    /// republish happened since the last call.
    pub fn current(&mut self) -> Option<&Arc<IntelSnapshot>> {
        let epoch = self.inner.epoch.load(Ordering::Acquire);
        if epoch != self.seen {
            // Cold path: a republish (or first publish) happened.
            self.cached = self.inner.slot.lock().clone();
            self.seen = epoch;
        }
        self.cached.as_ref()
    }

    /// The view the last [`current`](Self::current) call settled on,
    /// without re-checking the epoch: for a caller that has just
    /// refreshed and needs the snapshot borrowed beside its own state.
    pub(crate) fn cached(&self) -> Option<&Arc<IntelSnapshot>> {
        self.cached.as_ref()
    }

    /// The epoch of the cached view (0 before the first successful
    /// [`current`](Self::current)).
    pub fn epoch_seen(&self) -> u64 {
        self.seen
    }

    /// Time since the hub's last publish (`None` before the first) — the
    /// serve `health` verb's epoch age. Takes the publish-side lock, so
    /// keep it off the per-query path.
    pub fn epoch_age(&self) -> Option<Duration> {
        self.inner.published_at.lock().map(|t| t.elapsed())
    }

    /// Block until something is published (or the timeout passes).
    /// Returns whether a snapshot is now visible.
    pub fn wait_ready(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.current().is_some() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(n: usize) -> IntelSnapshot {
        // Structure-only stand-in: `n` empty-keyed entries.
        use smishing_core::pipeline::Pipeline;
        use smishing_obs::Obs;
        use smishing_worldsim::{World, WorldConfig};
        let w = World::generate(WorldConfig::test_scale(n as u64 + 7));
        let out = Pipeline::default().run(&w, &Obs::noop());
        IntelSnapshot::build(&out)
    }

    #[test]
    fn empty_hub_reads_none() {
        let hub = IntelHub::new();
        let mut r = hub.reader();
        assert_eq!(hub.epoch(), 0);
        assert!(r.current().is_none());
        assert!(hub.epoch_age().is_none());
        assert!(r.epoch_age().is_none());
        assert!(!r.wait_ready(Duration::from_millis(5)));
    }

    #[test]
    fn epoch_age_resets_on_republish() {
        let hub = IntelHub::new();
        hub.publish(tiny(1));
        std::thread::sleep(Duration::from_millis(5));
        let aged = hub.epoch_age().expect("published");
        assert!(aged >= Duration::from_millis(5));
        hub.publish(tiny(2));
        let fresh = hub.epoch_age().expect("republished");
        assert!(fresh < aged);
        assert!(hub.reader().epoch_age().is_some());
    }

    #[test]
    fn publish_bumps_epoch_and_readers_converge() {
        let hub = IntelHub::new();
        let mut r = hub.reader();
        let a = tiny(1);
        let len_a = a.len();
        assert_eq!(hub.publish(a), 1);
        assert_eq!(r.current().unwrap().len(), len_a);
        assert_eq!(r.epoch_seen(), 1);
        // Republish: the reader sees the new view on its next call, and
        // an old clone held elsewhere stays valid (immutability).
        let held = Arc::clone(r.current().unwrap());
        let b = tiny(2);
        let len_b = b.len();
        assert_eq!(hub.publish(b), 2);
        assert_eq!(r.current().unwrap().len(), len_b);
        assert_eq!(held.len(), len_a);
    }

    #[test]
    fn concurrent_readers_see_whole_snapshots() {
        let hub = IntelHub::new();
        hub.publish(tiny(1));
        crossbeam::scope(|s| {
            for _ in 0..4 {
                let mut r = hub.reader();
                s.spawn(move |_| {
                    for _ in 0..200 {
                        let snap = r.current().expect("published").clone();
                        // A consistent view: entry count never changes
                        // under our feet within one borrow.
                        assert_eq!(snap.len(), snap.entries().len());
                    }
                });
            }
            let publisher = hub.clone();
            s.spawn(move |_| {
                for _ in 0..3 {
                    publisher.publish(tiny(2));
                }
            });
        })
        .expect("no reader panics");
        assert_eq!(hub.epoch(), 4);
    }
}
