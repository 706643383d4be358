/* Allocation counter for scripts/allocs.sh: LD_PRELOAD this into a process
 * and it counts the calls to malloc (with calloc, posix_memalign,
 * aligned_alloc and memalign), realloc and free, the bytes realloc was
 * asked for (the sum of new sizes) and the reallocations of at least
 * 4 KiB. At exit it appends one summary line to $ALLOCS_OUT:
 *
 *   S <mallocs> <reallocs> <realloc bytes> <reallocs >= 4 KiB> <frees>
 *
 * With ALLOCS_SITES=1 every reallocation of at least 4 KiB also appends,
 * as it happens, one line "R <new size> <offset>...": the return addresses
 * of its call stack (innermost first) that fall in the main executable, as
 * hex offsets into it less one (inside the call instruction, where
 * addr2line names the calling line). Each line goes out as one write(2) on a
 * file opened with O_APPEND, so two threads' lines cannot interleave.
 * The real allocator is glibc's, called through its __libc_* entry points
 * (no dlsym, which itself allocates). x86-64 Linux, glibc only. */
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <fcntl.h>
#include <link.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

#define LARGE 4096
#define MAX_FRAMES 48

static unsigned long mallocs, reallocs, realloc_bytes, large_reallocs, frees;
static unsigned long base, end;
static int sites_fd = -1;
/* Set while this thread is inside backtrace(), which may allocate. */
static __thread int in_hook __attribute__((tls_model("initial-exec")));

static void count(unsigned long *n, unsigned long by) {
    __atomic_fetch_add(n, by, __ATOMIC_RELAXED);
}

/* The first object dl_iterate_phdr reports is the main executable. */
static int main_object(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size, (void)data;
    base = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; i++)
        if (info->dlpi_phdr[i].p_type == PT_LOAD && (info->dlpi_phdr[i].p_flags & PF_X))
            end = base + info->dlpi_phdr[i].p_vaddr + info->dlpi_phdr[i].p_memsz;
    return 1;
}

/* One "R" line for a large reallocation, written with a single write(2). */
static void record_site(size_t size) {
    if (sites_fd < 0 || in_hook)
        return;
    in_hook = 1;
    void *frames[MAX_FRAMES];
    int n = backtrace(frames, MAX_FRAMES);
    char line[32 + 20 * MAX_FRAMES];
    int len = snprintf(line, sizeof line, "R %zu", size);
    for (int i = 0; i < n; i++) {
        unsigned long ip = (unsigned long)frames[i];
        if (ip >= base && ip < end)
            len += snprintf(line + len, sizeof line - len, " %lx", ip - base - 1);
    }
    line[len++] = '\n';
    ssize_t written = write(sites_fd, line, len);
    (void)written;
    in_hook = 0;
}

void *malloc(size_t size) {
    count(&mallocs, 1);
    return __libc_malloc(size);
}

void *calloc(size_t n, size_t size) {
    count(&mallocs, 1);
    return __libc_calloc(n, size);
}

void *memalign(size_t align, size_t size) {
    count(&mallocs, 1);
    return __libc_memalign(align, size);
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
    count(&reallocs, 1);
    count(&realloc_bytes, size);
    if (size >= LARGE) {
        count(&large_reallocs, 1);
        record_site(size);
    }
    return __libc_realloc(ptr, size);
}

void free(void *ptr) {
    count(&frees, 1);
    __libc_free(ptr);
}

__attribute__((constructor)) static void start(void) {
    dl_iterate_phdr(main_object, NULL);
    const char *sites = getenv("ALLOCS_SITES"), *path = getenv("ALLOCS_OUT");
    if (sites && !strcmp(sites, "1") && path) {
        sites_fd = open(path, O_WRONLY | O_APPEND | O_CREAT, 0644);
        /* backtrace() loads its unwinder on first use; do that here. */
        void *frames[1];
        in_hook = 1;
        backtrace(frames, 1);
        in_hook = 0;
    }
}

__attribute__((destructor)) static void stop(void) {
    const char *path = getenv("ALLOCS_OUT");
    if (!path)
        return;
    int fd = open(path, O_WRONLY | O_APPEND | O_CREAT, 0644);
    if (fd < 0)
        return;
    char line[128];
    int len = snprintf(line, sizeof line, "S %lu %lu %lu %lu %lu\n",
                       __atomic_load_n(&mallocs, __ATOMIC_RELAXED),
                       __atomic_load_n(&reallocs, __ATOMIC_RELAXED),
                       __atomic_load_n(&realloc_bytes, __ATOMIC_RELAXED),
                       __atomic_load_n(&large_reallocs, __ATOMIC_RELAXED),
                       __atomic_load_n(&frees, __ATOMIC_RELAXED));
    ssize_t written = write(fd, line, len);
    (void)written;
    close(fd);
}
