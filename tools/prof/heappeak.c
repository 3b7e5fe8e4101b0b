/*
 * heappeak.c: where the heap peak is, loaded with LD_PRELOAD.
 *
 * Wraps malloc, calloc, realloc, free and the aligned allocators, and
 * keeps a table of every live allocation with its size and call stack.
 * Whenever the live heap passes its previous peak by more than 1/64
 * (or 64 KiB), the largest live allocations are copied aside, so the
 * copy is taken within that margin of the true peak. At exit the copy
 * is written out, largest first:
 *
 *     peak live heap <bytes> (listed at <bytes>, <n> live allocations)
 *     #1 <bytes>
 *       <module path> 0x<offset>
 *       ...
 *
 * Each frame is a return address minus one (the call instruction) in
 * its module's own ELF address space, so `addr2line -f -i -C -e
 * <module> 0x<offset>` names the call site. Frames inside this library
 * are left out. See README.md.
 *
 * Environment:
 *     HEAPPEAK_OUT  output file (default heappeak.<pid>.txt)
 *     HEAPPEAK_TOP  allocations listed (default 20, at most 64)
 *
 * Every allocation is unwound, so the traced program runs several
 * times slower. x86-64 Linux (glibc) only.
 *
 * Build: cc -O2 -Wall -Werror -shared -fPIC -o heappeak.so heappeak.c
 */
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <link.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

#if !defined(__x86_64__) || !defined(__linux__)
#error "heappeak.c wraps glibc's allocator on x86-64 Linux"
#endif

/* glibc's own entry points: no dlsym bootstrap, no recursion. */
extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

#define MAX_FRAMES 24
#define SLOTS (1ul << 19)  /* live allocations tracked, at most 3/4 full */
#define STACKS (1ul << 16) /* distinct call stacks; id 0 = table full */
#define MAX_TOP 64

struct live {
    uintptr_t ptr; /* 0 = empty slot */
    size_t size;
    uint32_t stack;
};

struct stack {
    uint64_t hash; /* 0 = empty slot */
    int depth;
    void *pc[MAX_FRAMES];
};

struct top {
    size_t size;
    uint32_t stack;
};

static struct live *table;
static struct stack *stacks;
static size_t nlive, live_bytes, peak_bytes, untracked;
static struct top listed[MAX_TOP];
static size_t nlisted, listed_bytes, listed_live;
static int top_n = 20;
static char lock;
static __thread int busy __attribute__((tls_model("initial-exec")));

static void acquire(void)
{
    while (__atomic_test_and_set(&lock, __ATOMIC_ACQUIRE))
        ;
}

static void release(void)
{
    __atomic_clear(&lock, __ATOMIC_RELEASE);
}

static void *map_pages(size_t bytes)
{
    void *p = mmap(NULL, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    return p == MAP_FAILED ? NULL : p;
}

__attribute__((constructor)) static void heappeak_start(void)
{
    const char *env = getenv("HEAPPEAK_TOP");
    if (env && atoi(env) > 0)
        top_n = atoi(env) < MAX_TOP ? atoi(env) : MAX_TOP;
    /* The first backtrace() loads the unwinder, which allocates. */
    void *pc[2];
    busy = 1;
    backtrace(pc, 2);
    busy = 0;
    stacks = map_pages(STACKS * sizeof *stacks);
    table = map_pages(SLOTS * sizeof *table);
    if (!stacks || !table) {
        fputs("heappeak: cannot map the tables; tracking nothing\n", stderr);
        table = NULL;
    }
}

static size_t slot_of(uintptr_t ptr)
{
    return (size_t)(((ptr >> 4) * 0x9E3779B97F4A7C15ull) >> 45) & (SLOTS - 1);
}

/* The id of a call stack, interned; 0 when the stack table is full. */
static uint32_t intern(void **pc, int depth)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (int i = 0; i < depth; i++)
        h = (h ^ (uintptr_t)pc[i]) * 0x100000001b3ull;
    h |= 1;
    for (size_t i = h & (STACKS - 1), n = 0; n < STACKS / 2;
         i = (i + 1) & (STACKS - 1), n++) {
        if (i == 0)
            continue;
        struct stack *s = &stacks[i];
        if (!s->hash) {
            s->hash = h;
            s->depth = depth;
            memcpy(s->pc, pc, depth * sizeof *pc);
            return (uint32_t)i;
        }
        if (s->hash == h && s->depth == depth &&
            !memcmp(s->pc, pc, depth * sizeof *pc))
            return (uint32_t)i;
    }
    return 0;
}

/* Copies the largest live allocations aside (caller holds the lock). */
static void list_peak(void)
{
    nlisted = 0;
    for (size_t i = 0; i < SLOTS; i++) {
        if (!table[i].ptr)
            continue;
        size_t size = table[i].size;
        if (nlisted == (size_t)top_n && size <= listed[nlisted - 1].size)
            continue;
        size_t j = nlisted < (size_t)top_n ? nlisted++ : nlisted - 1;
        while (j > 0 && listed[j - 1].size < size) {
            listed[j] = listed[j - 1];
            j--;
        }
        listed[j].size = size;
        listed[j].stack = table[i].stack;
    }
    listed_bytes = live_bytes;
    listed_live = nlive;
}

/* Records a new allocation (caller holds the lock). */
static void track(void *p, size_t size, uint32_t stack)
{
    if (!p)
        return;
    if (nlive >= SLOTS / 4 * 3) {
        untracked++;
        return;
    }
    size_t i = slot_of((uintptr_t)p);
    while (table[i].ptr)
        i = (i + 1) & (SLOTS - 1);
    table[i].ptr = (uintptr_t)p;
    table[i].size = size;
    table[i].stack = stack;
    nlive++;
    live_bytes += size;
    if (live_bytes > peak_bytes) {
        peak_bytes = live_bytes;
        size_t margin = listed_bytes / 64 > 65536 ? listed_bytes / 64 : 65536;
        if (live_bytes >= listed_bytes + margin)
            list_peak();
    }
}

/* Forgets a freed allocation (caller holds the lock). */
static void untrack(void *p)
{
    if (!p)
        return;
    size_t i = slot_of((uintptr_t)p);
    while (table[i].ptr != (uintptr_t)p) {
        if (!table[i].ptr)
            return; /* allocated before start-up or while untracked */
        i = (i + 1) & (SLOTS - 1);
    }
    nlive--;
    live_bytes -= table[i].size;
    /* Backward-shift deletion keeps every probe chain unbroken. */
    for (size_t j = (i + 1) & (SLOTS - 1); table[j].ptr; j = (j + 1) & (SLOTS - 1)) {
        size_t home = slot_of(table[j].ptr);
        int stays = i < j ? (i < home && home <= j) : (i < home || home <= j);
        if (!stays) {
            table[i] = table[j];
            i = j;
        }
    }
    table[i].ptr = 0;
}

/* The caller's stack, interned; must run outside the lock. */
static uint32_t caller_stack(void)
{
    void *pc[MAX_FRAMES];
    int depth = backtrace(pc, MAX_FRAMES);
    acquire();
    uint32_t id = intern(pc, depth);
    release();
    return id;
}

static int tracking(void)
{
    return table && !busy;
}

void *malloc(size_t size)
{
    if (!tracking())
        return __libc_malloc(size);
    busy = 1;
    uint32_t stack = caller_stack();
    void *p = __libc_malloc(size);
    acquire();
    track(p, size, stack);
    release();
    busy = 0;
    return p;
}

void *calloc(size_t n, size_t size)
{
    if (!tracking())
        return __libc_calloc(n, size);
    busy = 1;
    uint32_t stack = caller_stack();
    void *p = __libc_calloc(n, size);
    acquire();
    track(p, n * size, stack);
    release();
    busy = 0;
    return p;
}

void *realloc(void *old, size_t size)
{
    if (!tracking())
        return __libc_realloc(old, size);
    busy = 1;
    uint32_t stack = caller_stack();
    /* Under the lock, so no other thread can reuse `old` in between. */
    acquire();
    void *p = __libc_realloc(old, size);
    if (p || size == 0)
        untrack(old);
    track(p, size, stack);
    release();
    busy = 0;
    return p;
}

void free(void *p)
{
    if (!tracking() || !p) {
        __libc_free(p);
        return;
    }
    acquire();
    untrack(p);
    __libc_free(p);
    release();
}

void *memalign(size_t align, size_t size)
{
    if (!tracking())
        return __libc_memalign(align, size);
    busy = 1;
    uint32_t stack = caller_stack();
    void *p = __libc_memalign(align, size);
    acquire();
    track(p, size, stack);
    release();
    busy = 0;
    return p;
}

void *aligned_alloc(size_t align, size_t size)
{
    return memalign(align, size);
}

int posix_memalign(void **out, size_t align, size_t size)
{
    if (align < sizeof(void *) || (align & (align - 1)))
        return EINVAL;
    void *p = memalign(align, size);
    if (!p)
        return ENOMEM;
    *out = p;
    return 0;
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

__attribute__((destructor)) static void heappeak_stop(void)
{
    if (!table)
        return;
    busy = 1;
    acquire();
    char path[64], exe[4096];
    const char *out = getenv("HEAPPEAK_OUT");
    if (!out) {
        snprintf(path, sizeof path, "heappeak.%d.txt", (int)getpid());
        out = path;
    }
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[len > 0 ? len : 0] = '\0';
    struct lookup self = {(uintptr_t)&find_module, 0, NULL};
    dl_iterate_phdr(find_module, &self);
    FILE *f = fopen(out, "w");
    if (!f) {
        perror("heappeak: cannot open the output file");
        release();
        return;
    }
    fprintf(f, "peak live heap %zu (listed at %zu, %zu live allocations)\n",
            peak_bytes, listed_bytes, listed_live);
    if (untracked)
        fprintf(f, "untracked allocations (table full): %zu\n", untracked);
    for (size_t k = 0; k < nlisted; k++) {
        fprintf(f, "#%zu %zu\n", k + 1, listed[k].size);
        const struct stack *s = &stacks[listed[k].stack];
        if (!listed[k].stack)
            fputs("  (stack table full)\n", f);
        for (int d = 0; listed[k].stack && d < s->depth; d++) {
            struct lookup l = {(uintptr_t)s->pc[d] - 1, 0, NULL};
            if (!dl_iterate_phdr(find_module, &l))
                l.name = "?";
            else if (l.name == self.name)
                continue; /* a frame of this library */
            else if (!l.name || !*l.name)
                l.name = exe; /* the main program reports an empty name */
            fprintf(f, "  %s 0x%lx\n", l.name, (unsigned long)(l.pc - l.bias));
        }
    }
    fclose(f);
    fprintf(stderr, "heappeak: peak live heap %zu bytes -> %s\n", peak_bytes, out);
    release();
}
