/* Sampling profiler for scripts/profile.sh: LD_PRELOAD this into a process
 * and every 100 us of wall time SIGALRM records the interrupted instruction
 * pointer; at exit the samples are appended to $SAMP_OUT, one hex offset
 * into the main executable per line (0 = outside it: libc, vdso, kernel).
 * x86-64 Linux only. No unwinding: a sample names the function it fell in,
 * and `addr2line -i` recovers that function's inline chain. */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1u << 22)
static unsigned long samples[MAX_SAMPLES], base, end;
static unsigned count;

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
    unsigned n = count < MAX_SAMPLES ? count : MAX_SAMPLES;
    for (unsigned i = 0; i < n; i++)
        fprintf(out, "%lx\n", samples[i] >= base && samples[i] < end ? samples[i] - base : 0ul);
    fclose(out);
}
