/* Live-heap profiler for scripts/heap.sh: LD_PRELOAD this into a process
 * and it tracks every block the process holds from malloc (with calloc,
 * posix_memalign, aligned_alloc, memalign and realloc) by the size it was
 * asked for, and remembers the blocks live at the moment the live bytes
 * peaked. At exit it appends to $HEAP_OUT one line
 *
 *   P <peak live bytes> <blocks live at the peak> <untracked blocks>
 *
 * one line of CLOCK_MONOTONIC readings, in nanoseconds, of when this
 * library was loaded, when the live bytes last reached their peak and when
 * the process exited, so a caller can place the peak among the process's
 * own timestamps:
 *
 *   T <loaded> <peak> <exit>
 *
 * one line for the resident set's peak (ru_maxrss, the kernel's VmHWM,
 * which counts memory the allocator keeps after a free and this tracker's
 * own tables too): its final value in kB and the interval, between two
 * allocator calls, in which it last rose — each call reads it, and so
 * does the exit:
 *
 *   R <peak kB> <after> <by>
 *
 * and one line per requested size that had blocks live at the peak:
 *
 *   H <size> <blocks of that size at the peak> <their bytes>
 *
 * Bytes are the bytes asked for, not the allocator's rounding or headers.
 * The peak's breakdown is kept without copying the whole table at each
 * new peak: a size whose count changed since the last peak is marked
 * dirty, and a new peak copies only the dirty sizes, so the bookkeeping
 * is amortized O(1) per call. Every call, the real one included, runs
 * under one mutex, so threads see one consistent order of blocks (and run
 * serialized through the allocator: time a run without this). Blocks
 * beyond the pointer table's capacity, or of more distinct sizes than the
 * size table holds, are counted as untracked and left out. The real
 * allocator is glibc's, called through its __libc_* entry points (no
 * dlsym, which itself allocates). x86-64 Linux, glibc only. */
#define _GNU_SOURCE
#include <fcntl.h>
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>
#include <errno.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

/* Live blocks, by address: open addressing with linear probing, kept at
 * most 3/4 full, deletion by backward shift (no tombstones). */
#define PTR_BITS 20
#define PTR_SLOTS (1ul << PTR_BITS)
static struct block {
    uintptr_t ptr; /* 0: empty */
    size_t size;
} blocks[PTR_SLOTS];
static unsigned long live_blocks, untracked;

/* Requested sizes: live and at-peak counts and bytes, by size. */
#define SIZE_BITS 16
#define SIZE_SLOTS (1ul << SIZE_BITS)
static struct row {
    size_t size;
    unsigned long count, bytes, peak_count, peak_bytes;
    int used, dirty;
} rows[SIZE_SLOTS];
static unsigned long nrows;
static uint32_t dirty[SIZE_SLOTS];
static unsigned long ndirty;

static unsigned long live_bytes, peak_bytes, peak_blocks;
static unsigned long long loaded_ns, peak_ns;
static pthread_mutex_t lock = PTHREAD_MUTEX_INITIALIZER;

static unsigned long long now_ns(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (unsigned long long)ts.tv_sec * 1000000000ull + (unsigned long long)ts.tv_nsec;
}

__attribute__((constructor)) static void start(void) {
    loaded_ns = now_ns();
}

/* The resident set's peak and when it last rose: after the previous
 * reading and by this one. Called under the lock after every call. */
static long rss_peak_kb;
static unsigned long long rss_read_ns, rss_after_ns, rss_by_ns;

static void watch_rss(void) {
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    unsigned long long t = now_ns();
    if (ru.ru_maxrss > rss_peak_kb) {
        rss_peak_kb = ru.ru_maxrss;
        rss_after_ns = rss_read_ns;
        rss_by_ns = t;
    }
    rss_read_ns = t;
}

static size_t hash(uintptr_t x, unsigned bits) {
    return (size_t)((x * 0x9e3779b97f4a7c15ull) >> (64 - bits));
}

/* The row of `size`, or NULL when the table is full. */
static struct row *row_of(size_t size) {
    for (size_t i = hash(size, SIZE_BITS);; i = (i + 1) & (SIZE_SLOTS - 1)) {
        if (rows[i].used && rows[i].size == size)
            return &rows[i];
        if (!rows[i].used) {
            if (4 * (nrows + 1) > 3 * SIZE_SLOTS)
                return NULL;
            rows[i].used = 1;
            rows[i].size = size;
            nrows++;
            return &rows[i];
        }
    }
}

/* Moves `size`'s live count by one block, up or down. */
static void count(struct row *r, int up) {
    if (up) {
        r->count++;
        r->bytes += r->size;
        live_bytes += r->size;
        live_blocks++;
    } else {
        r->count--;
        r->bytes -= r->size;
        live_bytes -= r->size;
        live_blocks--;
    }
    if (!r->dirty) {
        r->dirty = 1;
        dirty[ndirty++] = (uint32_t)(r - rows);
    }
    if (live_bytes > peak_bytes) {
        for (unsigned long i = 0; i < ndirty; i++) {
            struct row *d = &rows[dirty[i]];
            d->peak_count = d->count;
            d->peak_bytes = d->bytes;
            d->dirty = 0;
        }
        ndirty = 0;
        peak_bytes = live_bytes;
        peak_blocks = live_blocks;
        peak_ns = now_ns();
    }
}

static void track(void *p, size_t size) {
    if (!p)
        return;
    struct row *r = row_of(size);
    if (!r || 4 * (live_blocks + 1) > 3 * PTR_SLOTS) {
        untracked++;
        return;
    }
    size_t i = hash((uintptr_t)p, PTR_BITS);
    while (blocks[i].ptr)
        i = (i + 1) & (PTR_SLOTS - 1);
    blocks[i].ptr = (uintptr_t)p;
    blocks[i].size = size;
    count(r, 1);
}

static void untrack(void *p) {
    if (!p)
        return;
    size_t i = hash((uintptr_t)p, PTR_BITS);
    while (blocks[i].ptr != (uintptr_t)p) {
        if (!blocks[i].ptr)
            return; /* allocated before this library, or untracked */
        i = (i + 1) & (PTR_SLOTS - 1);
    }
    /* INVARIANT: a tracked block's size has a row (track made it). */
    count(row_of(blocks[i].size), 0);
    /* Backward-shift deletion: pull later members of the probe run into
     * the hole when their home slot does not lie after it. */
    size_t hole = i;
    for (size_t j = (i + 1) & (PTR_SLOTS - 1); blocks[j].ptr; j = (j + 1) & (PTR_SLOTS - 1)) {
        size_t home = hash(blocks[j].ptr, PTR_BITS);
        if (((j - home) & (PTR_SLOTS - 1)) >= ((j - hole) & (PTR_SLOTS - 1))) {
            blocks[hole] = blocks[j];
            hole = j;
        }
    }
    blocks[hole].ptr = 0;
}

void *malloc(size_t size) {
    pthread_mutex_lock(&lock);
    void *p = __libc_malloc(size);
    track(p, size);
    watch_rss();
    pthread_mutex_unlock(&lock);
    return p;
}

void *calloc(size_t n, size_t size) {
    pthread_mutex_lock(&lock);
    void *p = __libc_calloc(n, size);
    track(p, n * size); /* calloc failed (p == NULL) if this overflowed */
    watch_rss();
    pthread_mutex_unlock(&lock);
    return p;
}

void *memalign(size_t align, size_t size) {
    pthread_mutex_lock(&lock);
    void *p = __libc_memalign(align, size);
    track(p, size);
    watch_rss();
    pthread_mutex_unlock(&lock);
    return p;
}

void *aligned_alloc(size_t align, size_t size) {
    return memalign(align, size);
}

int posix_memalign(void **out, size_t align, size_t size) {
    void *p = memalign(align, size);
    if (!p && size)
        return ENOMEM;
    *out = p;
    return 0;
}

void *realloc(void *ptr, size_t size) {
    pthread_mutex_lock(&lock);
    void *p = __libc_realloc(ptr, size);
    /* A failed realloc keeps the old block; realloc(ptr, 0) frees it. */
    if (p || size == 0) {
        untrack(ptr);
        track(p, size);
    }
    watch_rss();
    pthread_mutex_unlock(&lock);
    return p;
}

void free(void *ptr) {
    pthread_mutex_lock(&lock);
    untrack(ptr);
    __libc_free(ptr);
    watch_rss();
    pthread_mutex_unlock(&lock);
}

__attribute__((destructor)) static void stop(void) {
    const char *path = getenv("HEAP_OUT");
    if (!path)
        return;
    int fd = open(path, O_WRONLY | O_APPEND | O_CREAT, 0644);
    if (fd < 0)
        return;
    pthread_mutex_lock(&lock);
    char line[128];
    int len = snprintf(line, sizeof line, "P %lu %lu %lu\n", peak_bytes, peak_blocks, untracked);
    ssize_t written = write(fd, line, len);
    watch_rss();
    len = snprintf(line, sizeof line, "T %llu %llu %llu\n", loaded_ns, peak_ns, rss_read_ns);
    written = write(fd, line, len);
    len = snprintf(line, sizeof line, "R %ld %llu %llu\n", rss_peak_kb, rss_after_ns, rss_by_ns);
    written = write(fd, line, len);
    for (size_t i = 0; i < SIZE_SLOTS; i++) {
        struct row *r = &rows[i];
        if (!r->used || !r->peak_count)
            continue;
        len = snprintf(line, sizeof line, "H %zu %lu %lu\n", r->size, r->peak_count, r->peak_bytes);
        written = write(fd, line, len);
    }
    (void)written;
    pthread_mutex_unlock(&lock);
    close(fd);
}
