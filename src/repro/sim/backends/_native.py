"""The native cycle kernel behind the fused grading engine.

A small C library, compiled lazily with the system C compiler on first
use, that runs the fused engine's per-cycle simulation for every fault
model. It provides these entry points:

``repro_grade_cycle``
    One full emulation cycle — input drive, the 2-input op program,
    output compare, state latch and compare — over the active column
    range ``[w_start, w_stop)``. Every inner loop is restrict-qualified
    so ``-O3 -march=native`` auto-vectorizes it into full-width SIMD
    (AVX2/AVX-512 where available, NEON on arm); the portable ``-O2``
    fallback build runs the same scalar C. When the persistent thread
    pool is enabled the column range is split into contiguous chunks,
    one per thread: writes are disjoint by construction, so the result
    is bit-exact regardless of thread count. The pool has a single job
    slot, so concurrent callers that use it take turns on a caller
    mutex; a 1-thread call takes no lock. The golden trace and the
    non-SEU fault models call it once per cycle.

``repro_grade_seu``
    A whole plain-SEU grade in one call: per cycle it seeds the newly
    injected lanes from the golden state and flips their bits, runs
    the cycle through the same pool dispatch as ``repro_grade_cycle``
    (so thread count and the caller mutex behave alike), records fail
    and vanish cycles by walking the per-word diffs bit by bit, and
    squeezes re-converged lanes out of every flop row with a PEXT
    compactor (BMI2 where available) so later cycles stream only live
    lanes. It stops once every fault has been injected and vanished,
    and returns the cycles executed and the repack count.

``repro_set_threads`` / ``repro_threads``
    Configure the persistent pthread worker pool. Pool threads are
    created once and parked on a condition variable between cycles;
    ``REPRO_FUSED_THREADS`` picks the default width (min(4, cpus) when
    unset). A build without pthreads (``-DREPRO_NO_THREADS``) pins the
    width to 1. Fork is detected by pid and the pool and its locks are
    lazily rebuilt in the child, so multiprocessing workers stay safe.

No compiler, a failed compile, or ``REPRO_FUSED_NATIVE=0`` in the
environment makes :func:`native_kernel` return ``None``; the fused
engine then hands every grade to the ``numpy`` engine (same results,
slower). The compiled library is cached under ``~/.cache`` keyed by a
hash of the source and the CPU identity, so a machine pays the compile
once. Nothing beyond ``ctypes``, numpy and the toolchain already
present on the host is involved.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from typing import Optional

import numpy as np

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__BMI2__)
#include <immintrin.h>
#endif

#ifndef REPRO_NO_THREADS
#include <pthread.h>
#include <unistd.h>
#define REPRO_MAX_THREADS 64
#endif

/* ------------------------------------------------------------------ */
/* one emulation cycle over a column range                             */
/* ------------------------------------------------------------------ */

/* `ops` rows are (code, a, b, c, out): codes 0/1/2 = and/or/xor,
 * 3/4/5 = their inverted forms, 6 = mux (a=select, b=d0, c=d1). */
struct gc_args {
    uint64_t *values;
    long width, w_start, w_stop;
    const int32_t *ops;
    long nops;
    const uint64_t *in_mask;
    long n_in;
    const int32_t *out_slots;
    const uint64_t *out_mask;
    long n_out;
    uint64_t *out_diff;
    const int32_t *d_slots;
    const uint64_t *state_mask;
    long n_ff;
    long q_start;
    uint64_t *state_diff;
    uint64_t *dtmp;
    long parts, chunk;
};

static void run_range(const struct gc_args *A, long lo, long hi,
                      uint64_t *restrict scr)
{
    long width = A->width;
    long wl = hi - lo;
    uint64_t *values = A->values;
    if (wl <= 0) return;

    for (long i = 0; i < A->n_in; i++) {
        uint64_t m = A->in_mask[i];
        uint64_t *restrict r = values + i * width + lo;
        for (long w = 0; w < wl; w++) r[w] = m;
    }
    const int32_t *ops = A->ops;
    for (long o = 0; o < A->nops; o++) {
        const int32_t *p = ops + o * 5;
        const uint64_t *restrict a = values + (long)p[1] * width + lo;
        const uint64_t *restrict b = values + (long)p[2] * width + lo;
        const uint64_t *restrict c = values + (long)p[3] * width + lo;
        uint64_t *restrict out = values + (long)p[4] * width + lo;
        switch (p[0]) {
        case 0: for (long w = 0; w < wl; w++) out[w] = a[w] & b[w]; break;
        case 1: for (long w = 0; w < wl; w++) out[w] = a[w] | b[w]; break;
        case 2: for (long w = 0; w < wl; w++) out[w] = a[w] ^ b[w]; break;
        case 3: for (long w = 0; w < wl; w++) out[w] = ~(a[w] & b[w]); break;
        case 4: for (long w = 0; w < wl; w++) out[w] = ~(a[w] | b[w]); break;
        case 5: for (long w = 0; w < wl; w++) out[w] = ~(a[w] ^ b[w]); break;
        default:
            for (long w = 0; w < wl; w++)
                out[w] = b[w] ^ (a[w] & (b[w] ^ c[w]));
            break;
        }
    }
    uint64_t *restrict od = A->out_diff + lo;
    for (long w = 0; w < wl; w++) od[w] = 0;
    for (long i = 0; i < A->n_out; i++) {
        const uint64_t *restrict r = values + (long)A->out_slots[i] * width + lo;
        uint64_t m = A->out_mask[i];
        for (long w = 0; w < wl; w++) od[w] |= r[w] ^ m;
    }
    /* D values go through scratch first: a flop's D net may alias
     * another flop's Q row, so all reads happen before any Q write. */
    uint64_t *restrict sd = A->state_diff + lo;
    for (long w = 0; w < wl; w++) sd[w] = 0;
    for (long i = 0; i < A->n_ff; i++) {
        const uint64_t *restrict r = values + (long)A->d_slots[i] * width + lo;
        uint64_t *restrict t = scr + i * wl;
        uint64_t m = A->state_mask[i];
        for (long w = 0; w < wl; w++) {
            uint64_t v = r[w];
            t[w] = v;
            sd[w] |= v ^ m;
        }
    }
    for (long i = 0; i < A->n_ff; i++) {
        uint64_t *restrict q = values + (A->q_start + i) * width + lo;
        const uint64_t *restrict t = scr + i * wl;
        for (long w = 0; w < wl; w++) q[w] = t[w];
    }
}

/* ------------------------------------------------------------------ */
/* persistent thread pool                                              */
/* ------------------------------------------------------------------ */

#ifndef REPRO_NO_THREADS
static pthread_mutex_t g_mx;
static pthread_cond_t g_cv_work, g_cv_done;
static int g_sync_init = 0;
static long g_pool_pid = -1;
static long g_threads = 1;   /* configured width */
static long g_spawned = 0;   /* live pool workers (caller excluded) */
static unsigned long g_gen = 0;
static long g_pending = 0;
static struct gc_args g_args;
static struct pool_worker { long idx; unsigned long seen; }
    g_w[REPRO_MAX_THREADS];
/* The pool has one job slot (g_args/g_gen/g_pending), so concurrent
 * callers take turns: g_call_mx is held from pool_ensure until the
 * caller's job has drained. It is valid from load (static init) in the
 * loading process; a forked child re-initialises it on first use, since
 * the fork may have copied it locked. */
static pthread_mutex_t g_call_mx = PTHREAD_MUTEX_INITIALIZER;
static long g_call_pid = -1;

__attribute__((constructor)) static void call_lock_init(void)
{
    g_call_pid = (long)getpid();
}

static void call_lock(void)
{
    long pid = (long)getpid();
    if (g_call_pid != pid) {
        pthread_mutex_init(&g_call_mx, 0);
        g_call_pid = pid;
    }
    pthread_mutex_lock(&g_call_mx);
}

static void *pool_main(void *arg)
{
    struct pool_worker *me = arg;
    for (;;) {
        pthread_mutex_lock(&g_mx);
        while (me->seen == g_gen) pthread_cond_wait(&g_cv_work, &g_mx);
        me->seen = g_gen;
        struct gc_args A = g_args;
        pthread_mutex_unlock(&g_mx);
        if (me->idx < A.parts) {
            long lo = A.w_start + me->idx * A.chunk;
            long hi = lo + A.chunk;
            if (hi > A.w_stop) hi = A.w_stop;
            run_range(&A, lo, hi, A.dtmp + me->idx * A.n_ff * A.chunk);
        }
        pthread_mutex_lock(&g_mx);
        if (--g_pending == 0) pthread_cond_signal(&g_cv_done);
        pthread_mutex_unlock(&g_mx);
    }
    return 0;
}

/* Ensure `want - 1` parked workers exist; returns the usable width.
 * After fork() only the calling thread survives, so a pid change means
 * the pool (and possibly the mutex state) is gone: reinitialize. */
static long pool_ensure(long want)
{
    long pid = (long)getpid();
    if (g_pool_pid != pid) {
        g_pool_pid = pid;
        g_spawned = 0;
        g_sync_init = 0;
    }
    if (!g_sync_init) {
        pthread_mutex_init(&g_mx, 0);
        pthread_cond_init(&g_cv_work, 0);
        pthread_cond_init(&g_cv_done, 0);
        g_sync_init = 1;
    }
    while (g_spawned < want - 1) {
        struct pool_worker *w = &g_w[g_spawned];
        w->idx = g_spawned + 1;
        w->seen = g_gen;
        pthread_t t;
        if (pthread_create(&t, 0, pool_main, w) != 0) break;
        pthread_detach(t);
        g_spawned++;
    }
    return g_spawned + 1;
}
#endif

long repro_set_threads(long n)
{
#ifdef REPRO_NO_THREADS
    (void)n;
    return 1;
#else
    if (n < 1) n = 1;
    if (n > REPRO_MAX_THREADS) n = REPRO_MAX_THREADS;
    g_threads = n;
    return n;
#endif
}

long repro_threads(void)
{
#ifdef REPRO_NO_THREADS
    return 1;
#else
    return g_threads;
#endif
}

/* Simulate one cycle over A's column range. When the pool is enabled
 * the range is split into contiguous chunks, one per thread, at least
 * 8 word columns each. */
static void dispatch(struct gc_args *A)
{
    long span = A->w_stop - A->w_start;
    A->parts = 1;
    A->chunk = span;
#ifndef REPRO_NO_THREADS
    long parts = g_threads;
    long maxp = span / 8;
    if (maxp < 1) maxp = 1;
    if (parts > maxp) parts = maxp;
    if (parts > 1) {
        call_lock();
        long avail = pool_ensure(parts);
        if (parts > avail) parts = avail;
        if (parts < 2) pthread_mutex_unlock(&g_call_mx);
    }
    if (parts > 1) {
        A->parts = parts;
        A->chunk = (span + parts - 1) / parts;
        pthread_mutex_lock(&g_mx);
        g_args = *A;
        g_pending = g_spawned;
        g_gen++;
        pthread_cond_broadcast(&g_cv_work);
        pthread_mutex_unlock(&g_mx);
        long hi0 = A->w_start + A->chunk;
        if (hi0 > A->w_stop) hi0 = A->w_stop;
        run_range(A, A->w_start, hi0, A->dtmp);
        pthread_mutex_lock(&g_mx);
        while (g_pending) pthread_cond_wait(&g_cv_done, &g_mx);
        pthread_mutex_unlock(&g_mx);
        pthread_mutex_unlock(&g_call_mx);
        return;
    }
#endif
    run_range(A, A->w_start, A->w_stop, A->dtmp);
}

void repro_grade_cycle(
    uint64_t *values, long width, long w_start, long w_stop,
    const int32_t *ops, long nops,
    const uint64_t *in_mask, long n_in,
    const int32_t *out_slots, const uint64_t *out_mask, long n_out,
    uint64_t *out_diff,
    const int32_t *d_slots, const uint64_t *state_mask, long n_ff,
    long q_start, uint64_t *state_diff, uint64_t *dtmp)
{
    struct gc_args A = {
        values, width, w_start, w_stop, ops, nops, in_mask, n_in,
        out_slots, out_mask, n_out, out_diff, d_slots, state_mask,
        n_ff, q_start, state_diff, dtmp, 1, 0,
    };
    dispatch(&A);
}

/* ------------------------------------------------------------------ */
/* lane compaction                                                     */
/* ------------------------------------------------------------------ */

static inline uint64_t repro_pext(uint64_t x, uint64_t m)
{
#if defined(__BMI2__)
    return _pext_u64(x, m);
#else
    uint64_t r = 0;
    int k = 0;
    while (m) {
        uint64_t lsb = m & (~m + 1);
        if (x & lsb) r |= (uint64_t)1 << k;
        k++;
        m &= m - 1;
    }
    return r;
#endif
}

/* Squeeze the kept bits of rows [row_start, row_stop) to the front, in
 * place, across word columns [0, n_words). keep[w] selects the bits of
 * column w that survive. In-place is safe: the write cursor never gets
 * ahead of the read cursor. Returns the new word count. */
static long compact_rows(
    uint64_t *values, long width, long row_start, long row_stop,
    const uint64_t *keep, long n_words)
{
    long out_words = 0;
    for (long r = row_start; r < row_stop; r++) {
        uint64_t *restrict row = values + r * width;
        uint64_t acc = 0;
        long nb = 0;
        long j = 0;
        for (long w = 0; w < n_words; w++) {
            uint64_t k = keep[w];
            if (!k) continue;
            long c = __builtin_popcountll(k);
            uint64_t e = repro_pext(row[w], k);
            acc |= e << nb;
            if (nb + c >= 64) {
                row[j++] = acc;
                long used = 64 - nb;
                acc = (used >= 64) ? 0 : (e >> used);
                nb = nb + c - 64;
            } else {
                nb += c;
            }
        }
        if (nb) row[j++] = acc;
        out_words = j;
    }
    return out_words;
}

/* ------------------------------------------------------------------ */
/* a whole plain-SEU grade                                             */
/* ------------------------------------------------------------------ */

/* Lanes [0, n) of a 64-lane word, n clamped to [0, 64]. */
static inline uint64_t lanes_below(long n)
{
    return n <= 0 ? 0 : n >= 64 ? ~(uint64_t)0 : ((uint64_t)1 << n) - 1;
}

/* Grade single-bit flips, one lane per fault, in one call. Sorted by
 * injection cycle, lanes [bounds[t], bounds[t+1]) flip q row lane_q[i]
 * at cycle t and report into fail/vanish[order[i]] (filled with -1).
 * Lanes take packed positions as they are injected; once 1/16 of them
 * (and at least 64) have re-converged, the live bits of every q row are
 * squeezed to the front, and lane_map (packed position -> fault index)
 * follows. Mask rows are contiguous, one per cycle (state: one per
 * cycle boundary). Returns the cycles executed, -1 if out of memory. */
long repro_grade_seu(
    uint64_t *values, long width, const uint64_t *in_masks,
    const uint64_t *out_masks, const uint64_t *state_masks,
    const int32_t *ops, long nops, long n_in,
    const int32_t *out_slots, long n_out, const int32_t *d_slots, long n_ff,
    long q_start, long num_cycles, long num_faults,
    const int64_t *bounds, const int64_t *lane_q, const int64_t *order,
    int32_t *fail, int32_t *vanish, long *repacks)
{
    /* out_diff, state_diff, not_failed, not_vanished, lane_map, then D
     * scratch with room for every pool chunk to round up */
    long words = width + 1;
    uint64_t *scratch = calloc(68 * words + n_ff * (words + 64), 8);
    if (!scratch) return -1;
    uint64_t *not_failed = scratch + 2 * words;
    uint64_t *not_vanished = scratch + 3 * words;
    int64_t *lane_map = (int64_t *)(scratch + 4 * words);
    struct gc_args A = {
        values, width, 0, 0, ops, nops, 0, n_in,
        out_slots, 0, n_out, scratch, d_slots, 0,
        n_ff, q_start, scratch + words, scratch + 68 * words, 1, 0,
    };
    long packed = 0;   /* packed positions in use */
    long live = 0;     /* unresolved lanes among them */
    long n_act = 0;    /* active word columns: ceil(packed / 64) */
    long executed = 0;
    *repacks = 0;

    for (long cycle = 0; cycle < num_cycles; cycle++) {
        long first = bounds[cycle], last = bounds[cycle + 1];
        if (last > first) {
            /* Seed the new positions with this cycle's golden state
             * (mask-merged: boundary words may hold live lanes), then
             * flip each injected flop bit. */
            long top = packed + last - first;
            const uint64_t *golden = state_masks + cycle * n_ff;
            n_act = (top + 63) >> 6;
            for (long w = packed >> 6; w < n_act; w++) {
                uint64_t fresh = lanes_below(top - (w << 6)) &
                                 ~lanes_below(packed - (w << 6));
                for (long f = 0; f < n_ff; f++) {
                    uint64_t *q = values + (q_start + f) * width + w;
                    *q = (*q & ~fresh) | (golden[f] & fresh);
                }
                not_failed[w] |= fresh;
                not_vanished[w] |= fresh;
            }
            for (long i = first; i < last; i++, packed++) {
                values[lane_q[i] * width + (packed >> 6)] ^=
                    (uint64_t)1 << (packed & 63);
                lane_map[packed] = order[i];
            }
            live += last - first;
        }
        if (live == 0) {
            if (last == num_faults) {
                executed = cycle;
                break;
            }
            continue;
        }
        executed = cycle + 1;

        A.w_stop = n_act;
        A.in_mask = in_masks + cycle * n_in;
        A.out_mask = out_masks + cycle * n_out;
        A.state_mask = state_masks + (cycle + 1) * n_ff;
        dispatch(&A);

        for (long w = 0; w < n_act; w++) {
            uint64_t failed = A.out_diff[w] & not_failed[w];
            uint64_t vanished = ~A.state_diff[w] & not_vanished[w];
            for (uint64_t b = failed; b; b &= b - 1)
                fail[lane_map[(w << 6) + __builtin_ctzll(b)]] = (int32_t)cycle;
            for (uint64_t b = vanished; b; b &= b - 1)
                vanish[lane_map[(w << 6) + __builtin_ctzll(b)]] = (int32_t)cycle;
            /* A vanished lane tracks golden forever, so it can never
             * fail later: clearing it keeps its (now possibly stale)
             * bits inert through skipped cycles and repacks. */
            not_failed[w] &= ~(failed | vanished);
            not_vanished[w] &= ~vanished;
            live -= __builtin_popcountll(vanished);
        }
        if (live == 0 && last == num_faults) break;

        long dead = packed - live;
        if (dead >= 64 && dead * 16 >= packed) {
            long kept = 0;
            for (long w = 0; w < n_act; w++)
                for (uint64_t b = not_vanished[w]; b; b &= b - 1)
                    lane_map[kept++] = lane_map[(w << 6) + __builtin_ctzll(b)];
            compact_rows(values, width, q_start, q_start + n_ff,
                         not_vanished, n_act);
            compact_rows(not_failed, n_act, 0, 1, not_vanished, n_act);
            long old_n_act = n_act;
            packed = live;
            n_act = (packed + 63) >> 6;
            for (long w = 0; w < old_n_act; w++) {
                not_vanished[w] = lanes_below(packed - (w << 6));
                if (w >= n_act) not_failed[w] = 0;
            }
            ++*repacks;
        }
    }
    free(scratch);
    return executed;
}
"""

#: the C pool's width cap (REPRO_MAX_THREADS above)
MAX_THREADS = 64

#: tri-state: None = not tried yet, False = unavailable, else the kernel
_KERNEL = None


class NativeKernel:
    """ctypes bindings plus the configured thread-pool width."""

    __slots__ = ("grade_cycle", "grade_seu", "threads", "_set_threads")

    def __init__(self, library: ctypes.CDLL):
        longs = ctypes.c_long
        pointer = ctypes.c_void_p

        self.grade_cycle = library.repro_grade_cycle
        self.grade_cycle.restype = None
        self.grade_cycle.argtypes = [
            pointer, longs, longs, longs,  # values, width, w_start, w_stop
            pointer, longs,  # ops, nops
            pointer, longs,  # in_mask, n_in
            pointer, pointer, longs,  # out_slots, out_mask, n_out
            pointer,  # out_diff
            pointer, pointer, longs,  # d_slots, state_mask, n_ff
            longs, pointer, pointer,  # q_start, state_diff, dtmp
        ]

        # ndpointer checks dtype and contiguity: the loop indexes raw rows
        u64, i64, i32 = (
            np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")
            for dtype in (np.uint64, np.int64, np.int32)
        )
        self.grade_seu = library.repro_grade_seu
        self.grade_seu.restype = longs
        self.grade_seu.argtypes = [  # as repro_grade_seu's parameters
            u64, longs, u64, u64, u64, i32, longs, longs, i32, longs,
            i32, longs, longs, longs, longs, i64, i64, i64,
            i32, i32, ctypes.POINTER(longs),
        ]

        self._set_threads = library.repro_set_threads
        self._set_threads.restype = longs
        self._set_threads.argtypes = [longs]
        self.threads = 1

    def set_threads(self, count: int) -> int:
        """Resize the persistent pool; returns the effective width."""
        self.threads = int(self._set_threads(int(count)))
        return self.threads


def default_threads() -> int:
    """Pool width from ``REPRO_FUSED_THREADS``, else min(4, cpus)."""
    raw = os.environ.get("REPRO_FUSED_THREADS", "")
    try:
        if raw:
            return max(1, int(raw))
    except ValueError:
        pass
    return max(1, min(4, os.cpu_count() or 1))


def native_kernel() -> Optional[NativeKernel]:
    """The compiled cycle kernel, or None when unavailable."""
    global _KERNEL
    if _KERNEL is None:
        _KERNEL = _load() or False
    return _KERNEL or None


def configure_threads(count: int) -> int:
    """Set the kernel pool width; returns the effective width (1 when
    the native kernel is unavailable or built without threads)."""
    kernel = native_kernel()
    if kernel is None:
        return 1
    return kernel.set_threads(count)


def _cpu_tag() -> str:
    """CPU identity folded into the cache key.

    The kernel is built with ``-march=native``, so a cached binary must
    never be loaded on a CPU with a different instruction set (shared
    home directories, restored CI caches) — that would trade a graceful
    fallback for a SIGILL.
    """
    tag = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith(("flags", "Features")):
                    tag += line
                    break
    except OSError:
        tag += platform.processor() or ""
    return tag


def _cache_path() -> str:
    digest = hashlib.sha256((_SOURCE + _cpu_tag()).encode()).hexdigest()[:16]
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, f"repro-fused-native-{digest}.so")


def _bind(library: ctypes.CDLL) -> NativeKernel:
    kernel = NativeKernel(library)
    kernel.set_threads(default_threads())
    return kernel


def _load():
    if os.environ.get("REPRO_FUSED_NATIVE", "1") == "0":
        return None
    shared_object = _cache_path()
    if os.path.exists(shared_object):
        try:
            return _bind(ctypes.CDLL(shared_object))
        except OSError:
            pass  # stale/foreign-arch cache entry; recompile below
    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if compiler is None:
        return None
    try:
        os.makedirs(os.path.dirname(shared_object), exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="repro-native-") as workdir:
            source = os.path.join(workdir, "kernel.c")
            with open(source, "w") as handle:
                handle.write(_SOURCE)
            built = os.path.join(workdir, "kernel.so")
            for flags in (
                ["-O3", "-march=native", "-pthread"],
                ["-O2", "-pthread"],
                ["-O2", "-DREPRO_NO_THREADS"],
            ):
                result = subprocess.run(
                    [compiler, "-shared", "-fPIC", *flags, source, "-o", built],
                    capture_output=True,
                )
                if result.returncode == 0:
                    break
            else:
                return None
            # Atomic publish so concurrent processes never load a torn file.
            temp = shared_object + f".{os.getpid()}.tmp"
            shutil.copy(built, temp)
            os.replace(temp, shared_object)
        return _bind(ctypes.CDLL(shared_object))
    except (OSError, subprocess.SubprocessError):
        return None
