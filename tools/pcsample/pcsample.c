/* PC sampler, loaded with LD_PRELOAD into an unmodified program.
 *
 * Every thread of the process (the main thread at load, every later one
 * through an interposed pthread_create) arms its own CLOCK_MONOTONIC
 * timer that sends it SIGPROF every 50 microseconds. The handler stores
 * the interrupted program counter. At exit the library writes
 * pcsample.<pid>.txt into PCSAMPLE_DIR (default the working directory):
 * the executable's path, the process's memory map and a count per
 * distinct PC. tools/pcsample/pcsample.py runs a command this way and
 * turns the file into layer shares.
 *
 * A monotonic timer fires at its interval. A thread CPU-time timer would
 * measure CPU time instead, but the kernel checks those only on its
 * scheduler tick (every 4 ms on a 250 Hz kernel), far too coarse here.
 * The price is that a thread blocked in a wait is sampled too, at the
 * wait's PC: profile a program whose work runs on one thread.
 *
 * Build: cc -O2 -shared -fPIC -o libpcsample.so pcsample.c -ldl -lrt -pthread
 * (pcsample.py does this before every run).
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

/* Enough for 100 s of one thread at 50 us; later samples are counted as
 * dropped. */
#define CAPACITY (1u << 21)

/* Shared by every thread's handler; read and written atomically. */
static uint64_t* g_pcs;
static unsigned long g_next;  /* next free slot in g_pcs */
static unsigned long g_dropped;
static int g_stopped;

#define INTERVAL_NS 50000L  /* sampling interval */

static uint64_t InterruptedPc(void* context) {
  const ucontext_t* uc = (const ucontext_t*)context;
#if defined(__x86_64__)
  return (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  return (uint64_t)uc->uc_mcontext.pc;
#else
#error "pcsample: unsupported architecture"
#endif
}

static void OnSample(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  if (__atomic_load_n(&g_stopped, __ATOMIC_RELAXED)) return;
  const unsigned long slot = __atomic_fetch_add(&g_next, 1, __ATOMIC_RELAXED);
  if (slot < CAPACITY)
    g_pcs[slot] = InterruptedPc(context);
  else
    __atomic_fetch_add(&g_dropped, 1, __ATOMIC_RELAXED);
}

/* Arms a timer that samples the calling thread; 0 on success. */
static int ArmThisThread(timer_t* timer) {
  struct sigevent sev;
  memset(&sev, 0, sizeof sev);
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = (pid_t)syscall(SYS_gettid);
  if (timer_create(CLOCK_MONOTONIC, &sev, timer) != 0) return -1;
  struct itimerspec spec;
  spec.it_interval.tv_sec = 0;
  spec.it_interval.tv_nsec = INTERVAL_NS;
  spec.it_value = spec.it_interval;
  return timer_settime(*timer, 0, &spec, NULL);
}

struct Start {
  void* (*fn)(void*);
  void* arg;
};

static void* RunSampled(void* p) {
  struct Start start = *(struct Start*)p;
  free(p);
  timer_t timer;
  const int armed = ArmThisThread(&timer) == 0;
  void* result = start.fn(start.arg);
  if (armed) timer_delete(timer);
  return result;
}

typedef int (*CreateFn)(pthread_t*, const pthread_attr_t*, void* (*)(void*),
                        void*);

int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                   void* (*fn)(void*), void* arg) {
  static CreateFn real;
  if (!real) real = (CreateFn)dlsym(RTLD_NEXT, "pthread_create");
  struct Start* start = malloc(sizeof *start);
  if (!start) return real(thread, attr, fn, arg);
  start->fn = fn;
  start->arg = arg;
  const int rc = real(thread, attr, RunSampled, start);
  if (rc != 0) free(start);
  return rc;
}

static int ComparePc(const void* a, const void* b) {
  const uint64_t x = *(const uint64_t*)a;
  const uint64_t y = *(const uint64_t*)b;
  return x < y ? -1 : x > y;
}

__attribute__((constructor)) static void Start(void) {
  void* mem = mmap(NULL, CAPACITY * sizeof(uint64_t), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return;
  g_pcs = (uint64_t*)mem;
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = OnSample;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  timer_t timer;
  ArmThisThread(&timer);
}

__attribute__((destructor)) static void Finish(void) {
  if (!g_pcs) return;
  __atomic_store_n(&g_stopped, 1, __ATOMIC_RELAXED);
  unsigned long n = __atomic_load_n(&g_next, __ATOMIC_RELAXED);
  if (n > CAPACITY) n = CAPACITY;
  const char* dir = getenv("PCSAMPLE_DIR");
  char path[4096];
  snprintf(path, sizeof path, "%s/pcsample.%d.txt", dir && *dir ? dir : ".",
           (int)getpid());
  FILE* f = fopen(path, "w");
  if (!f) return;
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  exe[len > 0 ? len : 0] = '\0';
  fprintf(f, "pcsample 1\ninterval_us %ld\nexe %s\nsamples %lu\ndropped %lu\n",
          INTERVAL_NS / 1000L, exe, n,
          __atomic_load_n(&g_dropped, __ATOMIC_RELAXED));
  fputs("maps\n", f);
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps) {
    char line[4096 + 128];
    while (fgets(line, sizeof line, maps)) fputs(line, f);
    fclose(maps);
  }
  fputs("pcs\n", f);
  qsort(g_pcs, n, sizeof(uint64_t), ComparePc);
  for (unsigned long i = 0; i < n;) {
    unsigned long j = i;
    while (j < n && g_pcs[j] == g_pcs[i]) ++j;
    fprintf(f, "%llx %lu\n", (unsigned long long)g_pcs[i], j - i);
    i = j;
  }
  fclose(f);
}
