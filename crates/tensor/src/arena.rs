//! Per-worker scratch arenas: recycled, typed buffers for every per-call
//! allocation on the inference hot path.
//!
//! Each OS thread that executes kernel work — executor pool workers, serve
//! session workers, or a client thread calling the engine directly — owns
//! one thread-local [`ScratchArena`]. Checkout is by element type
//! ([`take_f32`] / [`take_i8`] / [`take_i16`] / [`take_i32`], plus [`take_tensor`] for
//! tensor-shaped psum/activation scratch, which is just an `f32` slab with a
//! shape attached), and buffers are handed back with the matching `put_*`
//! call so the capacity is reused by the next layer on the same worker.
//!
//! This replaces the old per-layer `ConvScratch` design, where every frozen
//! conv held its own `Mutex<Vec<ConvScratch>>` pool: scratch memory
//! multiplied across layers × serve workers × models, each pool grew to the
//! largest batch that layer ever saw, and nothing ever shrank. With one
//! arena per worker the footprint is `workers × max-single-layer-need`, and
//! a high-water trim (see below) lets it decay after a burst.
//!
//! # Checkout is by value
//!
//! `take_*` transfers ownership of a plain `Vec` (or [`Tensor`]) rather than
//! lending a borrow, so checkout is re-entrant: a conv that holds its im2col
//! buffer can call into a kernel that checks out more scratch on the same
//! thread without aliasing trouble. If a task panics between `take` and
//! `put`, the buffer is simply dropped — the arena loses a recycled buffer,
//! never its integrity.
//!
//! # High-water trim
//!
//! The arena tracks the peak number of bytes simultaneously checked out
//! within a sliding window of [`TRIM_WINDOW`] returns. At each window
//! boundary, retained free capacity beyond that recent peak is released, so
//! one huge calibration batch no longer pins its scratch for the life of the
//! server. [`ScratchArena::peak_bytes`] (per arena) and
//! [`global_peak_bytes`] (process-wide high-water across all arenas) are
//! exposed as debug stats.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::Tensor;

/// Number of `put_*` calls between high-water trims of retained capacity.
pub const TRIM_WINDOW: usize = 256;

/// Process-wide high-water mark of bytes held by any single arena.
static GLOBAL_PEAK: AtomicUsize = AtomicUsize::new(0);

/// The largest number of scratch bytes any single arena has held (checked
/// out + retained free capacity) since process start. Debug stat.
pub fn global_peak_bytes() -> usize {
    GLOBAL_PEAK.load(Ordering::Relaxed)
}

/// One type's recycled buffers.
struct Slab<T> {
    free: Vec<Vec<T>>,
}

impl<T: Clone + Default> Slab<T> {
    const fn new() -> Self {
        Self { free: Vec::new() }
    }

    /// Bytes of retained free capacity.
    fn held_bytes(&self) -> usize {
        self.free
            .iter()
            .map(|v| v.capacity() * std::mem::size_of::<T>())
            .sum()
    }

    /// Takes the best-fitting free buffer (smallest capacity ≥ `len`, else
    /// the largest available) resized to exactly `len` elements. Contents of
    /// the reused prefix are stale unless `zero` is set.
    fn take(&mut self, len: usize, zero: bool) -> Vec<T> {
        let pick = self
            .free
            .iter()
            .enumerate()
            .filter(|(_, v)| v.capacity() >= len)
            .min_by_key(|(_, v)| v.capacity())
            .map(|(i, _)| i)
            .or_else(|| {
                self.free
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, v)| v.capacity())
                    .map(|(i, _)| i)
            });
        let mut v = match pick {
            Some(i) => self.free.swap_remove(i),
            None => Vec::new(),
        };
        if zero {
            v.clear();
        }
        v.resize(len, T::default());
        v
    }

    fn put(&mut self, v: Vec<T>) {
        if v.capacity() > 0 {
            self.free.push(v);
        }
    }

    /// Drops free buffers (smallest first) until retained capacity is at
    /// most `budget` bytes.
    fn trim_to(&mut self, budget: usize) {
        self.free.sort_by_key(|v| v.capacity());
        while self.held_bytes() > budget && !self.free.is_empty() {
            self.free.remove(0);
        }
    }
}

/// A per-worker pool of recycled scratch buffers with typed checkout.
///
/// Usually accessed through the thread-local free functions ([`take_f32`]
/// and friends); owning one directly is useful in tests.
pub struct ScratchArena {
    f32s: Slab<f32>,
    i8s: Slab<i8>,
    i16s: Slab<i16>,
    i32s: Slab<i32>,
    /// Capacity bytes currently checked out (footprint accounting).
    out_cap_bytes: usize,
    /// Requested bytes currently checked out (what the workload needs, as
    /// opposed to the capacity that happens to back it).
    out_need_bytes: usize,
    /// All-time high-water of checked-out + retained capacity bytes.
    peak_bytes: usize,
    /// Peak of *requested* checked-out bytes within the current trim
    /// window — becomes the retention budget at the window boundary.
    window_peak: usize,
    /// Retention budget from the previous window: any buffer whose return
    /// pushes held capacity past this is released immediately.
    trim_budget: usize,
    /// `put_*` calls since the last trim.
    puts: usize,
}

impl Default for ScratchArena {
    fn default() -> Self {
        Self::new()
    }
}

impl ScratchArena {
    /// Creates an empty arena.
    pub const fn new() -> Self {
        Self {
            f32s: Slab::new(),
            i8s: Slab::new(),
            i16s: Slab::new(),
            i32s: Slab::new(),
            out_cap_bytes: 0,
            out_need_bytes: 0,
            peak_bytes: 0,
            window_peak: 0,
            trim_budget: usize::MAX,
            puts: 0,
        }
    }

    /// Bytes of free capacity currently retained for reuse.
    pub fn held_bytes(&self) -> usize {
        self.f32s.held_bytes()
            + self.i8s.held_bytes()
            + self.i16s.held_bytes()
            + self.i32s.held_bytes()
    }

    /// All-time high-water mark of this arena's footprint (checked out plus
    /// retained), in bytes. Debug stat.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    fn note_take(&mut self, need: usize, cap: usize) {
        self.out_need_bytes += need;
        self.out_cap_bytes += cap;
        self.window_peak = self.window_peak.max(self.out_need_bytes);
        let footprint = self.out_cap_bytes + self.held_bytes();
        if footprint > self.peak_bytes {
            self.peak_bytes = footprint;
            GLOBAL_PEAK.fetch_max(footprint, Ordering::Relaxed);
        }
    }

    /// Called after the buffer is back in its slab, so enforcement can
    /// release the very capacity that was just returned.
    fn note_put(&mut self, need: usize, cap: usize) {
        self.out_need_bytes = self.out_need_bytes.saturating_sub(need);
        self.out_cap_bytes = self.out_cap_bytes.saturating_sub(cap);
        self.puts += 1;
        if self.puts >= TRIM_WINDOW {
            self.trim();
        } else if self.held_bytes() > self.trim_budget {
            self.enforce_budget();
        }
    }

    /// Adopts the ending window's checked-out peak as the retention budget,
    /// releases capacity beyond it, and starts a new window. Called
    /// automatically every [`TRIM_WINDOW`] returns; public for tests and
    /// manual memory-pressure relief.
    pub fn trim(&mut self) {
        // Budget what the recent workload actually had in flight; anything
        // beyond that is a leftover from a larger burst. Buffers checked
        // out right now escape this pass, but the budget stays in force and
        // `note_put` releases them the moment they come back.
        self.trim_budget = self.window_peak;
        self.enforce_budget();
        self.window_peak = self.out_need_bytes;
        self.puts = 0;
    }

    /// Shrinks retained capacity to the current budget.
    fn enforce_budget(&mut self) {
        let budget = self.trim_budget;
        let held = self.held_bytes();
        if held > budget {
            // Split the budget across slabs proportionally to what each
            // currently holds, so a trim cannot starve one type.
            let scale = |h: usize| {
                if held == 0 {
                    0
                } else {
                    (h as u128 * budget as u128 / held as u128) as usize
                }
            };
            let f = scale(self.f32s.held_bytes());
            let i8b = scale(self.i8s.held_bytes());
            let i16b = scale(self.i16s.held_bytes());
            let i32b = scale(self.i32s.held_bytes());
            self.f32s.trim_to(f);
            self.i8s.trim_to(i8b);
            self.i16s.trim_to(i16b);
            self.i32s.trim_to(i32b);
        }
    }

    /// Checks out an `f32` buffer of `len` elements with stale contents
    /// (every caller-visible element will be overwritten by the user).
    pub fn take_f32(&mut self, len: usize) -> Vec<f32> {
        let v = self.f32s.take(len, false);
        self.note_take(len * 4, v.capacity() * 4);
        v
    }

    /// Checks out a zero-filled `f32` buffer of `len` elements.
    pub fn take_f32_zeroed(&mut self, len: usize) -> Vec<f32> {
        let v = self.f32s.take(len, true);
        self.note_take(len * 4, v.capacity() * 4);
        v
    }

    /// Returns an `f32` buffer for reuse.
    pub fn put_f32(&mut self, v: Vec<f32>) {
        let (need, cap) = (v.len() * 4, v.capacity() * 4);
        self.f32s.put(v);
        self.note_put(need, cap);
    }

    /// Checks out an `i8` buffer of `len` elements with stale contents.
    pub fn take_i8(&mut self, len: usize) -> Vec<i8> {
        let v = self.i8s.take(len, false);
        self.note_take(len, v.capacity());
        v
    }

    /// Returns an `i8` buffer for reuse.
    pub fn put_i8(&mut self, v: Vec<i8>) {
        let (need, cap) = (v.len(), v.capacity());
        self.i8s.put(v);
        self.note_put(need, cap);
    }

    /// Checks out an `i16` buffer of `len` elements with stale contents.
    pub fn take_i16(&mut self, len: usize) -> Vec<i16> {
        let v = self.i16s.take(len, false);
        self.note_take(len * 2, v.capacity() * 2);
        v
    }

    /// Returns an `i16` buffer for reuse.
    pub fn put_i16(&mut self, v: Vec<i16>) {
        let (need, cap) = (v.len() * 2, v.capacity() * 2);
        self.i16s.put(v);
        self.note_put(need, cap);
    }

    /// Checks out an `i32` buffer of `len` elements with stale contents.
    pub fn take_i32(&mut self, len: usize) -> Vec<i32> {
        let v = self.i32s.take(len, false);
        self.note_take(len * 4, v.capacity() * 4);
        v
    }

    /// Returns an `i32` buffer for reuse.
    pub fn put_i32(&mut self, v: Vec<i32>) {
        let (need, cap) = (v.len() * 4, v.capacity() * 4);
        self.i32s.put(v);
        self.note_put(need, cap);
    }

    /// Checks out a zero-filled tensor of `shape`, reusing recycled `f32`
    /// capacity.
    pub fn take_tensor(&mut self, shape: &[usize]) -> Tensor {
        let numel: usize = shape.iter().product();
        Tensor::from_vec(self.take_f32_zeroed(numel), shape)
    }

    /// Returns a tensor's storage for reuse.
    pub fn put_tensor(&mut self, t: Tensor) {
        self.put_f32(t.into_vec());
    }
}

thread_local! {
    static ARENA: RefCell<ScratchArena> = const { RefCell::new(ScratchArena::new()) };
}

/// Checks out an `f32` buffer (stale contents) from this thread's arena.
pub fn take_f32(len: usize) -> Vec<f32> {
    ARENA.with(|a| a.borrow_mut().take_f32(len))
}

/// Checks out a zero-filled `f32` buffer from this thread's arena.
pub fn take_f32_zeroed(len: usize) -> Vec<f32> {
    ARENA.with(|a| a.borrow_mut().take_f32_zeroed(len))
}

/// Returns an `f32` buffer to this thread's arena.
pub fn put_f32(v: Vec<f32>) {
    ARENA.with(|a| a.borrow_mut().put_f32(v));
}

/// Checks out an `i8` buffer (stale contents) from this thread's arena.
pub fn take_i8(len: usize) -> Vec<i8> {
    ARENA.with(|a| a.borrow_mut().take_i8(len))
}

/// Returns an `i8` buffer to this thread's arena.
pub fn put_i8(v: Vec<i8>) {
    ARENA.with(|a| a.borrow_mut().put_i8(v));
}

/// Checks out an `i16` buffer (stale contents) from this thread's arena.
pub fn take_i16(len: usize) -> Vec<i16> {
    ARENA.with(|a| a.borrow_mut().take_i16(len))
}

/// Returns an `i16` buffer to this thread's arena.
pub fn put_i16(v: Vec<i16>) {
    ARENA.with(|a| a.borrow_mut().put_i16(v));
}

/// Checks out an `i32` buffer (stale contents) from this thread's arena.
pub fn take_i32(len: usize) -> Vec<i32> {
    ARENA.with(|a| a.borrow_mut().take_i32(len))
}

/// Returns an `i32` buffer to this thread's arena.
pub fn put_i32(v: Vec<i32>) {
    ARENA.with(|a| a.borrow_mut().put_i32(v));
}

/// Checks out a zero-filled tensor from this thread's arena.
pub fn take_tensor(shape: &[usize]) -> Tensor {
    ARENA.with(|a| a.borrow_mut().take_tensor(shape))
}

/// Returns a tensor's storage to this thread's arena.
pub fn put_tensor(t: Tensor) {
    ARENA.with(|a| a.borrow_mut().put_tensor(t));
}

/// This thread's arena high-water mark in bytes. Debug stat.
pub fn thread_peak_bytes() -> usize {
    ARENA.with(|a| a.borrow().peak_bytes())
}

/// Trims this thread's arena to its recent checked-out peak immediately.
pub fn trim_thread_arena() {
    ARENA.with(|a| a.borrow_mut().trim());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_reuses_capacity() {
        let mut a = ScratchArena::new();
        let v = a.take_f32_zeroed(1024);
        assert!(v.iter().all(|&x| x == 0.0));
        let cap = v.capacity();
        let ptr = v.as_ptr();
        a.put_f32(v);
        let v2 = a.take_f32(512);
        assert_eq!(v2.capacity(), cap);
        assert_eq!(v2.as_ptr(), ptr);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient() {
        let mut a = ScratchArena::new();
        let big = a.take_f32(4096);
        let small = a.take_f32(64);
        let (big_cap, small_cap) = (big.capacity(), small.capacity());
        a.put_f32(big);
        a.put_f32(small);
        let v = a.take_f32(32);
        assert_eq!(v.capacity(), small_cap);
        let v2 = a.take_f32(2048);
        assert_eq!(v2.capacity(), big_cap);
    }

    #[test]
    fn tensor_checkout_is_zeroed_and_shaped() {
        let mut a = ScratchArena::new();
        let mut t = a.take_tensor(&[2, 3]);
        t.data_mut().fill(5.0);
        a.put_tensor(t);
        let t2 = a.take_tensor(&[3, 2]);
        assert_eq!(t2.shape(), &[3, 2]);
        assert!(t2.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn high_water_trim_releases_burst_capacity() {
        let mut a = ScratchArena::new();
        // A huge one-off burst...
        let burst = a.take_f32(1 << 20);
        a.put_f32(burst);
        assert!(a.held_bytes() >= 4 << 20);
        let peak_after_burst = a.peak_bytes();
        // ...followed by a steady small workload. Two full windows: the
        // first trim's budget still includes the burst (it was in-window),
        // the second one releases it.
        for _ in 0..2 * TRIM_WINDOW {
            let v = a.take_i8(128);
            let w = a.take_f32(256);
            a.put_i8(v);
            a.put_f32(w);
        }
        // The trim at the window boundary released the burst capacity.
        assert!(
            a.held_bytes() < 1 << 20,
            "held {} bytes after trim",
            a.held_bytes()
        );
        // The debug stat still remembers the high-water mark.
        assert!(a.peak_bytes() >= peak_after_burst);
    }

    #[test]
    fn thread_local_roundtrip() {
        let v = take_f32_zeroed(100);
        assert_eq!(v.len(), 100);
        put_f32(v);
        assert!(thread_peak_bytes() >= 400);
        trim_thread_arena();
    }
}
