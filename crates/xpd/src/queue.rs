//! The bounded FIFO between connection threads and the batch
//! scheduler.
//!
//! A connection thread pushes one cold query, blocks until the
//! scheduler answers it, and only then reads its client's next line.
//! So no client ever has two jobs queued, and arrival order is already
//! fair: a busy client cannot get ahead of another client's one ask.
//! The total item count is capped; a push beyond the cap, or after
//! [`Queue::close`], is refused at once so the connection thread can
//! answer `busy` instead of buffering without bound.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Only a panic under the lock poisons it, and nothing under it panics.
const POISONED: &str = "xpd queue lock poisoned";

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refused {
    /// The queue already holds [`Queue::cap`] items.
    Full,
    /// The queue is closed: the daemon is shutting down.
    Closed,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer FIFO drained in batches.
#[derive(Debug)]
pub struct Queue<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    cap: usize,
}

impl<T> Queue<T> {
    /// A queue holding at most `cap` items (at least one).
    pub fn new(cap: usize) -> Self {
        Queue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// The most items the queue holds.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Appends `item` and returns the depth after the push. A refused
    /// item is dropped.
    pub fn push(&self, item: T) -> Result<usize, Refused> {
        let mut state = self.state.lock().expect(POISONED);
        if state.closed {
            return Err(Refused::Closed);
        }
        if state.items.len() >= self.cap {
            return Err(Refused::Full);
        }
        state.items.push_back(item);
        let depth = state.items.len();
        drop(state);
        self.available.notify_one();
        Ok(depth)
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.state.lock().expect(POISONED).items.len()
    }

    /// Blocks until an item is queued, then takes up to `max` items in
    /// arrival order. Returns `None` once the queue is closed *and*
    /// drained.
    pub fn pop_batch(&self, max: usize) -> Option<Vec<T>> {
        let mut state = self.state.lock().expect(POISONED);
        while state.items.is_empty() {
            if state.closed {
                return None;
            }
            state = self.available.wait(state).expect(POISONED);
        }
        let n = max.max(1).min(state.items.len());
        Some(state.items.drain(..n).collect())
    }

    /// Closes the queue: queued items still drain, new pushes are
    /// refused, and `pop_batch` returns `None` once empty. Push and
    /// close share one lock, so every accepted item is popped.
    pub fn close(&self) {
        self.state.lock().expect(POISONED).closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn drains_in_arrival_order_up_to_max() {
        let q: Queue<&str> = Queue::new(16);
        for item in ["a1", "b1", "a2", "c1", "a3"] {
            q.push(item).unwrap();
        }
        assert_eq!(q.pop_batch(3).unwrap(), vec!["a1", "b1", "a2"]);
        assert_eq!(q.pop_batch(3).unwrap(), vec!["c1", "a3"]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn capacity_rejects_with_full() {
        let q: Queue<u32> = Queue::new(2);
        assert_eq!(q.cap(), 2);
        assert_eq!(q.push(10), Ok(1));
        assert_eq!(q.push(20), Ok(2));
        assert_eq!(q.push(30), Err(Refused::Full));
        let batch = q.pop_batch(8).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(q.push(30), Ok(1), "draining frees capacity");
    }

    #[test]
    fn close_drains_then_ends() {
        let q: Queue<u32> = Queue::new(8);
        q.push(1).unwrap();
        q.close();
        assert_eq!(q.pop_batch(8), Some(vec![1]));
        assert_eq!(q.pop_batch(8), None);
    }

    #[test]
    fn a_push_after_close_is_refused() {
        // Were it accepted, a push landing after the scheduler's last
        // pop would leave its waiter hanging forever.
        let q: Queue<u32> = Queue::new(8);
        q.close();
        assert_eq!(q.push(1), Err(Refused::Closed));
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop_batch(8), None);
    }

    #[test]
    fn blocked_pop_wakes_on_close_and_on_push() {
        let q: Arc<Queue<u32>> = Arc::new(Queue::new(8));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop_batch(4));
        std::thread::sleep(Duration::from_millis(20));
        q.push(42).unwrap();
        assert_eq!(popper.join().unwrap(), Some(vec![42]));

        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop_batch(4));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(popper.join().unwrap(), None);
    }
}
