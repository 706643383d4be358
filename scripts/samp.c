/* Sampling profiler for scripts/profile.sh: LD_PRELOAD this into a process
 * and every 100 us of wall time SIGALRM records the interrupted instruction
 * pointer; at exit the samples are appended to $SAMP_OUT, one line each:
 * a hex offset into the main executable, or "0 <object> <offset>" for a
 * sample outside it, <object> being the file name of the executable mapping
 * it fell in (libm.so.6, libc.so.6, [vdso]; [anon] for a mapping without a
 * file, ? for none) and <offset> the hex address within that object as its
 * symbol table counts it (the sample less the object's load base; ? when no
 * loaded object's executable segment holds it), so `nm -D` can name the
 * exported symbol it follows. A sample taken while a thread was in the kernel names
 * the user-space instruction that entered it. x86-64 Linux only. No
 * unwinding: a sample names the function it fell in, and `addr2line -i`
 * recovers that function's inline chain. */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1u << 22)
static unsigned long samples[MAX_SAMPLES], base, end;
static unsigned count;

/* The process's executable mappings, read at exit (every library the run
 * used is still mapped then). */
#define MAX_MAPS 256
static struct {
    unsigned long lo, hi;
    char name[64];
} maps[MAX_MAPS];
static int nmaps;

static void on_alarm(int sig, siginfo_t *si, void *ctx) {
    (void)sig, (void)si;
    unsigned i = __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
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

/* Lines of /proc/self/maps: "lo-hi perms offset dev inode [path]". */
static void read_maps(void) {
    FILE *f = fopen("/proc/self/maps", "r");
    if (!f)
        return;
    char line[512];
    while (nmaps < MAX_MAPS && fgets(line, sizeof line, f)) {
        unsigned long lo, hi;
        char perms[8];
        int path = 0;
        if (sscanf(line, "%lx-%lx %7s %*s %*s %*s %n", &lo, &hi, perms, &path) < 3 || !path ||
            !strchr(perms, 'x'))
            continue;
        line[strcspn(line, "\n")] = 0;
        const char *name = line + path, *slash = strrchr(name, '/');
        if (slash)
            name = slash + 1;
        maps[nmaps].lo = lo;
        maps[nmaps].hi = hi;
        snprintf(maps[nmaps].name, sizeof maps[nmaps].name, "%s", *name ? name : "[anon]");
        nmaps++;
    }
    fclose(f);
}

/* Every loaded object's executable segments with its load base, read at
 * exit like the mappings. */
#define MAX_SEGS 512
static struct {
    unsigned long lo, hi, base;
} segs[MAX_SEGS];
static int nsegs;

static int object_segments(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size, (void)data;
    for (int i = 0; i < info->dlpi_phnum && nsegs < MAX_SEGS; i++)
        if (info->dlpi_phdr[i].p_type == PT_LOAD && (info->dlpi_phdr[i].p_flags & PF_X)) {
            segs[nsegs].lo = info->dlpi_addr + info->dlpi_phdr[i].p_vaddr;
            segs[nsegs].hi = segs[nsegs].lo + info->dlpi_phdr[i].p_memsz;
            segs[nsegs].base = info->dlpi_addr;
            nsegs++;
        }
    return 0;
}

/* Writes the offset of `ip` within its object as a hex string, or "?". */
static void offset_in_object(unsigned long ip, char *buf, size_t len) {
    for (int i = 0; i < nsegs; i++)
        if (ip >= segs[i].lo && ip < segs[i].hi) {
            snprintf(buf, len, "%lx", ip - segs[i].base);
            return;
        }
    snprintf(buf, len, "?");
}

static const char *object_of(unsigned long ip) {
    for (int i = 0; i < nmaps; i++)
        if (ip >= maps[i].lo && ip < maps[i].hi)
            return maps[i].name;
    return "?";
}

__attribute__((constructor)) static void start(void) {
    dl_iterate_phdr(main_object, NULL);
    struct sigaction sa = {.sa_sigaction = on_alarm, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGALRM, &sa, NULL);
    struct itimerval every = {{0, 100}, {0, 100}};
    setitimer(ITIMER_REAL, &every, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_REAL, &off, NULL);
    const char *path = getenv("SAMP_OUT");
    FILE *out = path ? fopen(path, "a") : NULL;
    if (!out)
        return;
    read_maps();
    dl_iterate_phdr(object_segments, NULL);
    unsigned n = count < MAX_SAMPLES ? count : MAX_SAMPLES;
    char offset[32];
    for (unsigned i = 0; i < n; i++) {
        if (samples[i] >= base && samples[i] < end) {
            fprintf(out, "%lx\n", samples[i] - base);
        } else {
            offset_in_object(samples[i], offset, sizeof offset);
            fprintf(out, "0 %s %s\n", object_of(samples[i]), offset);
        }
    }
    fclose(out);
}
