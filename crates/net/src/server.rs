//! Fail-stop servers: named groups of threads with a shared liveness token.
//!
//! The paper models failures as fail-stop (§2): "failures are detectable,
//! and failed components are not restored". [`Server::kill`] flips the
//! liveness token and then runs the wakes its threads registered with
//! [`AliveToken::on_kill`], which end whatever wait each thread is blocked
//! in; every thread re-checks the token after each wait and exits,
//! dropping channels (so peers observe disconnects) and state (so the
//! failure genuinely loses the server's stores).

use crate::topology::RegionId;
use crate::transport::Wake;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Shared liveness flag for all threads of a server, with the wakes that
/// end their blocking waits when it flips.
#[derive(Clone)]
pub struct AliveToken(Arc<Liveness>);

struct Liveness {
    alive: AtomicBool,
    /// Run once, by the first [`AliveToken::kill`].
    on_kill: Mutex<Vec<Wake>>,
}

impl AliveToken {
    /// Creates a live token.
    pub fn new() -> Self {
        AliveToken(Arc::new(Liveness {
            alive: AtomicBool::new(true),
            on_kill: Mutex::new(Vec::new()),
        }))
    }

    /// True until the server is killed.
    pub fn is_alive(&self) -> bool {
        self.0.alive.load(Ordering::SeqCst)
    }

    /// Registers `wake` to run when the token is killed (at once if it
    /// already is). A thread registers the wake of every wait it blocks in,
    /// then re-checks [`AliveToken::is_alive`] after each wait: the flag
    /// flips before the wakes run, so no kill is missed.
    pub fn on_kill(&self, wake: Wake) {
        let mut wakes = self.0.on_kill.lock();
        if self.is_alive() {
            wakes.push(wake);
        } else {
            drop(wakes);
            wake();
        }
    }

    /// Marks the server dead and runs the registered wakes.
    pub fn kill(&self) {
        self.0.alive.store(false, Ordering::SeqCst);
        let wakes = std::mem::take(&mut *self.0.on_kill.lock());
        for wake in wakes {
            wake();
        }
    }
}

impl std::fmt::Debug for AliveToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("AliveToken").field(&self.is_alive()).finish()
    }
}

impl Default for AliveToken {
    fn default() -> Self {
        Self::new()
    }
}

/// A simulated physical server hosting middlebox/replica threads.
pub struct Server {
    name: String,
    region: RegionId,
    alive: AliveToken,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Creates a server in `region`.
    pub fn new(name: impl Into<String>, region: RegionId) -> Server {
        Server {
            name: name.into(),
            region,
            alive: AliveToken::new(),
            threads: Vec::new(),
        }
    }

    /// The server's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The region the server is deployed in.
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// The liveness token to hand to thread loops.
    pub fn alive_token(&self) -> AliveToken {
        self.alive.clone()
    }

    /// True until killed.
    pub fn is_alive(&self) -> bool {
        self.alive.is_alive()
    }

    /// Spawns a named thread owned by this server. The closure receives the
    /// liveness token and must return promptly once it reads `false`.
    pub fn spawn(&mut self, label: &str, f: impl FnOnce(AliveToken) + Send + 'static) {
        let token = self.alive.clone();
        let handle = std::thread::Builder::new()
            .name(format!("{}/{}", self.name, label))
            .spawn(move || f(token))
            .expect("spawn thread");
        self.threads.push(handle);
    }

    /// Number of threads spawned on this server and not yet joined.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Fail-stops the server: the token flips, its kill wakes end every
    /// registered wait, and threads observe the dead token and exit. Does
    /// not block; use [`Server::join`] to wait for full termination.
    pub fn kill(&self) {
        self.alive.kill();
    }

    /// Waits for all server threads to exit.
    pub fn join(&mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::time::Duration;

    #[test]
    fn threads_stop_on_kill() {
        let counter = Arc::new(AtomicU32::new(0));
        let mut s = Server::new("s1", RegionId(0));
        for _ in 0..3 {
            let c = Arc::clone(&counter);
            s.spawn("worker", move |alive| {
                while alive.is_alive() {
                    std::thread::sleep(Duration::from_micros(100));
                }
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert!(s.is_alive());
        s.kill();
        s.join();
        assert_eq!(counter.load(Ordering::SeqCst), 3);
        assert!(!s.is_alive());
    }

    #[test]
    fn drop_kills_and_joins() {
        let counter = Arc::new(AtomicU32::new(0));
        {
            let mut s = Server::new("s2", RegionId(1));
            let c = Arc::clone(&counter);
            s.spawn("w", move |alive| {
                while alive.is_alive() {
                    std::thread::sleep(Duration::from_micros(100));
                }
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }
}
