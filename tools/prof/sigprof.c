/*
 * sigprof.c: a statistical CPU profiler loaded with LD_PRELOAD.
 *
 * An ITIMER_PROF timer raises SIGPROF every PROF_US microseconds of
 * process CPU time (default 1000); the handler stores the interrupted
 * instruction pointer in a preallocated buffer. At exit the samples are
 * resolved to (module, offset) pairs, counted, and written one line per
 * distinct address, most frequent first:
 *
 *     <count> <module path> 0x<offset>
 *
 * The offset is the address in the module's own ELF address space, so
 * `addr2line -f -i -C -e <module> 0x<offset>` symbolizes it. Only the
 * leaf frame is sampled; `addr2line -i` expands the inlined frames at
 * that address. See README.md for the aggregation recipe.
 *
 * Environment:
 *     PROF_OUT  output file (default prof.<pid>.txt)
 *     PROF_US   sampling interval in microseconds of CPU time
 *
 * x86-64 Linux (glibc) only.
 *
 * Build: cc -O2 -Wall -Werror -shared -fPIC -o sigprof.so sigprof.c
 */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#if !defined(__x86_64__) || !defined(__linux__)
#error "sigprof.c reads the x86-64 Linux signal context"
#endif

/* Room for about 70 minutes of samples at the default interval. */
#define MAX_SAMPLES (1ul << 22)

/* Untouched pages cost nothing, and mmap never re-enters malloc. */
static void *map_pages(size_t bytes)
{
    void *p = mmap(NULL, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) {
        fputs("sigprof: cannot map a buffer\n", stderr);
        return NULL;
    }
    return p;
}

static uintptr_t *samples;
/* Slots claimed so far; may pass MAX_SAMPLES, and the excess is dropped. */
static unsigned long claimed;

static void on_sigprof(int sig, siginfo_t *info, void *uctx)
{
    (void)sig;
    (void)info;
    const ucontext_t *uc = uctx;
    /* Atomic: in a threaded program the signal may land on any thread. */
    unsigned long slot = __atomic_fetch_add(&claimed, 1, __ATOMIC_RELAXED);
    if (slot < MAX_SAMPLES)
        samples[slot] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void prof_start(void)
{
    samples = map_pages(MAX_SAMPLES * sizeof *samples);
    if (!samples)
        return;
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);

    const char *env = getenv("PROF_US");
    long us = env ? atol(env) : 1000;
    if (us <= 0)
        us = 1000;
    struct itimerval it;
    it.it_interval.tv_sec = us / 1000000;
    it.it_interval.tv_usec = us % 1000000;
    it.it_value = it.it_interval;
    setitimer(ITIMER_PROF, &it, NULL);
}

/* The module holding one address, found by dl_iterate_phdr. */
struct lookup {
    uintptr_t pc;
    uintptr_t bias;
    const char *name;
};

static int find_module(struct dl_phdr_info *info, size_t size, void *data)
{
    (void)size;
    struct lookup *l = data;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type != PT_LOAD)
            continue;
        uintptr_t lo = info->dlpi_addr + ph->p_vaddr;
        if (l->pc >= lo && l->pc < lo + ph->p_memsz) {
            l->bias = info->dlpi_addr;
            l->name = info->dlpi_name;
            return 1;
        }
    }
    return 0;
}

static int by_address(const void *a, const void *b)
{
    uintptr_t x = *(const uintptr_t *)a, y = *(const uintptr_t *)b;
    return (x > y) - (x < y);
}

struct site {
    uintptr_t pc;
    unsigned long count;
};

static int by_count_desc(const void *a, const void *b)
{
    const struct site *x = a, *y = b;
    return (y->count > x->count) - (y->count < x->count);
}

__attribute__((destructor)) static void prof_stop(void)
{
    if (!samples)
        return;
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);

    size_t n = claimed < MAX_SAMPLES ? claimed : MAX_SAMPLES;
    unsigned long dropped = claimed - n;
    qsort(samples, n, sizeof *samples, by_address);
    struct site *sites = map_pages((n ? n : 1) * sizeof *sites);
    if (!sites)
        return;
    size_t nsites = 0;
    for (size_t i = 0; i < n;) {
        size_t j = i;
        while (j < n && samples[j] == samples[i])
            j++;
        struct site s = {samples[i], (unsigned long)(j - i)};
        sites[nsites++] = s;
        i = j;
    }
    qsort(sites, nsites, sizeof *sites, by_count_desc);

    char path[64], exe[4096];
    const char *out = getenv("PROF_OUT");
    if (!out) {
        snprintf(path, sizeof path, "prof.%d.txt", (int)getpid());
        out = path;
    }
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[len > 0 ? len : 0] = '\0';
    FILE *f = fopen(out, "w");
    if (!f) {
        perror("sigprof: cannot open the output file");
        return;
    }
    for (size_t i = 0; i < nsites; i++) {
        struct lookup l = {sites[i].pc, 0, NULL};
        if (!dl_iterate_phdr(find_module, &l))
            l.name = "?";
        else if (!l.name || !*l.name)
            l.name = exe; /* the main program reports an empty name */
        fprintf(f, "%lu %s 0x%lx\n", sites[i].count, l.name,
                (unsigned long)(sites[i].pc - l.bias));
    }
    fclose(f);
    fprintf(stderr, "sigprof: %zu samples (%lu dropped) at %zu addresses -> %s\n",
            n, dropped, nsites, out);
}
