//! Host-speed marks taken on the measured thread's own CPU while a call
//! into the program runs untouched.
//!
//! The host's speed for the same code moves by up to 2× within a second
//! (see README.md, "Host speed"), so a stretch of seconds is scaled to
//! reference speed with marks taken during it, on the CPU that runs it:
//! a sampler thread pinned to that CPU wakes every [`MARK_EVERY_NS`] and
//! runs the calibration kernel, timed by its own CPU time, which the OS
//! schedules in place of the measured thread. The kernel's CPU time is
//! left out of the stretch.

use std::sync::mpsc;
use std::time::Duration;

use polyquery::obs::now_ns;

use crate::common::{speed_factor, thread_cpu_ns, MARK_EVERY_NS};

/// `sched_{get,set}affinity` and `sched_getcpu` of the C library, which
/// every Rust program on Linux links.
mod affinity {
    /// A `cpu_set_t` of 1024 CPUs.
    #[derive(Clone, Copy)]
    pub struct Mask([u64; 16]);

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        fn sched_getcpu() -> i32;
    }

    /// The calling thread's mask.
    pub fn get() -> Option<Mask> {
        let mut m = Mask([0; 16]);
        // SAFETY: `m` is a writable buffer of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), m.0.as_mut_ptr()) };
        (rc == 0).then_some(m)
    }

    /// Sets the calling thread's mask.
    pub fn set(m: &Mask) -> bool {
        // SAFETY: `m` is a readable buffer of exactly the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), m.0.as_ptr()) == 0 }
    }

    /// The mask of the CPU the calling thread runs on now.
    pub fn this_cpu() -> Option<Mask> {
        // SAFETY: no arguments; returns -1 on failure.
        let cpu = unsafe { sched_getcpu() };
        let cpu = usize::try_from(cpu).ok().filter(|&c| c < 1024)?;
        let mut m = Mask([0; 16]);
        m.0[cpu / 64] = 1 << (cpu % 64);
        Some(m)
    }
}

/// Marks of one timed stretch: (wall ns when the kernel started, wall
/// ns when it ended, the kernel's own CPU time in ns, speed factor),
/// ascending. The measured thread may run between the start and the
/// end; it does not run during the kernel's CPU time.
#[derive(Default)]
pub struct Marks(Vec<(u64, u64, u64, f64)>);

impl Marks {
    fn take(&mut self) {
        let (start, cpu) = (now_ns(), thread_cpu_ns());
        let f = speed_factor();
        self.0.push((start, now_ns(), thread_cpu_ns() - cpu, f));
    }

    /// Wall ns at the middle of mark `m`.
    fn mid(m: &(u64, u64, u64, f64)) -> u64 {
        m.0 + (m.1 - m.0) / 2
    }

    /// `[a, b]` less the marks' CPU time in it, at reference speed: the
    /// stretch between the middles of two marks is scaled by the mean of
    /// their factors. The marks must enclose `[a, b]`.
    pub fn scale(&self, a: u64, b: u64) -> f64 {
        let stretches: f64 = self
            .0
            .windows(2)
            .map(|w| {
                let (lo, hi) = (Self::mid(&w[0]).max(a), Self::mid(&w[1]).min(b));
                hi.saturating_sub(lo) as f64 * (w[0].3 + w[1].3) / 2.0
            })
            .sum();
        let marks: f64 = self
            .0
            .iter()
            .filter(|m| (a..b).contains(&Self::mid(m)))
            .map(|m| m.2 as f64 * m.3)
            .sum();
        stretches - marks
    }

    /// The marks' CPU time in `[a, b]`, in ns.
    fn cpu_within(&self, a: u64, b: u64) -> u64 {
        self.0
            .iter()
            .filter(|m| (a..b).contains(&Self::mid(m)))
            .map(|m| m.2)
            .sum()
    }

    /// Wall ns at which each mark's kernel started, ascending.
    pub fn starts(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.iter().map(|m| m.0)
    }
}

/// A call timed at reference speed.
pub struct Timed<T> {
    pub out: T,
    /// Wall time at reference speed, the marks' own time left out.
    pub secs: f64,
    /// Wall time with the marks' own time left out, unscaled.
    pub raw_secs: f64,
    /// `secs / raw_secs`.
    pub factor: f64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub marks: Marks,
}

/// Runs `f` on this thread, pinned for the call to the CPU it runs on,
/// while a sampler thread pinned to the same CPU takes a mark before
/// `f` starts, every [`MARK_EVERY_NS`] while it runs, and after it
/// ends. Where the threads cannot be pinned, or the host has one CPU,
/// the marks are taken right before and right after `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    time(f, true)
}

/// Runs `f` between marks taken right before and right after it, none
/// during it, so the program's own timers read undisturbed.
pub fn timed_around<T>(f: impl FnOnce() -> T) -> Timed<T> {
    time(f, false)
}

fn time<T>(f: impl FnOnce() -> T, during: bool) -> Timed<T> {
    // The sampler is a second thread: only where the host has two CPUs.
    let two = std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2;
    let saved = affinity::get().filter(|_| during && two);
    let cpu = affinity::this_cpu().filter(|m| saved.is_some() && affinity::set(m));
    let (out, start_ns, end_ns, marks) = match cpu {
        Some(cpu) => {
            let (ready_tx, ready_rx) = mpsc::channel();
            let (stop_tx, stop_rx) = mpsc::channel::<()>();
            std::thread::scope(|s| {
                let sampler = s.spawn(move || {
                    let pinned = affinity::set(&cpu);
                    let mut marks = Marks::default();
                    marks.take();
                    ready_tx
                        .send(pinned)
                        .expect("timed thread waits for the first mark");
                    while let Err(mpsc::RecvTimeoutError::Timeout) =
                        stop_rx.recv_timeout(Duration::from_nanos(MARK_EVERY_NS))
                    {
                        marks.take();
                    }
                    marks.take();
                    marks
                });
                let pinned = ready_rx.recv().expect("sampler takes a first mark");
                let start_ns = now_ns();
                let out = f();
                let end_ns = now_ns();
                stop_tx.send(()).expect("sampler waits for the stop");
                let mut marks = sampler.join().expect("speed sampler thread");
                if !pinned {
                    // Marks from another CPU say nothing of this one.
                    marks.0.retain(|m| m.1 <= start_ns || m.0 >= end_ns);
                }
                (out, start_ns, end_ns, marks)
            })
        }
        None => {
            let mut marks = Marks::default();
            marks.take();
            let start_ns = now_ns();
            let out = f();
            let end_ns = now_ns();
            marks.take();
            (out, start_ns, end_ns, marks)
        }
    };
    if let Some(m) = saved {
        affinity::set(&m);
    }
    let secs = marks.scale(start_ns, end_ns) / 1e9;
    let raw_secs = (end_ns - start_ns - marks.cpu_within(start_ns, end_ns)) as f64 / 1e9;
    Timed {
        out,
        secs,
        raw_secs,
        factor: secs / raw_secs,
        start_ns,
        end_ns,
        marks,
    }
}
