/*
 * pc_sample: an LD_PRELOAD program-counter sampler.
 *
 * Loaded into a process, it arms setitimer(ITIMER_PROF), which sends
 * SIGPROF each time the process has used another interval of CPU time
 * (all threads together). The handler records the interrupted
 * instruction pointer from the signal's ucontext. At exit the sampler
 * stops the timer, resolves every PC to its module with dladdr, and
 * writes one line per sample, "<offset-hex> <module-path>", where the
 * offset is the address nm prints for that module (the PC minus the load
 * base for shared objects and position-independent executables, the PC
 * itself for fixed-address executables). tools/pc_sample.py buckets the
 * lines by containing symbol.
 *
 * Unlike gprof it needs no -pg build: it samples the binary as built,
 * so it shows where that binary spends its CPU. Inlined functions are
 * charged to their callers. It gives no call counts.
 *
 * Build and run:
 *   cc -O2 -shared -fPIC -o pc_sample.so tools/pc_sample.c -ldl
 *   PC_SAMPLE_OUT=samples.txt LD_PRELOAD=$PWD/pc_sample.so ./program ...
 *   python3 tools/pc_sample.py samples.txt
 *
 * PC_SAMPLE_OUT names the output file (default pc_sample.<pid>.txt). A
 * sample is taken every millisecond of CPU time.
 *
 * Samples past the buffer (kMaxSamples) are counted and dropped. The
 * report is written from a destructor, so a process that leaves through
 * _exit() or a fatal signal writes nothing. x86-64 and AArch64 Linux.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <elf.h>
#include <errno.h>  // program_invocation_name
#include <limits.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kMaxSamples = 1 << 20 };

static uintptr_t samples[kMaxSamples];
static unsigned long num_samples;
static unsigned long dropped;
enum { kIntervalUs = 1000 };

static void on_sigprof(int sig, siginfo_t* info, void* raw) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)raw;
#if defined(__x86_64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "pc_sample supports x86-64 and AArch64 only"
#endif
  const unsigned long i =
      __atomic_fetch_add(&num_samples, 1, __ATOMIC_RELAXED);
  if (i < kMaxSamples) {
    samples[i] = pc;
  } else {
    __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
  }
}

static void set_timer(long us) {
  struct itimerval timer;
  timer.it_interval.tv_sec = us / 1000000;
  timer.it_interval.tv_usec = us % 1000000;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, NULL);
}

__attribute__((constructor)) static void pc_sample_start(void) {
  struct sigaction action;
  memset(&action, 0, sizeof(action));
  action.sa_sigaction = on_sigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, NULL);
  set_timer(kIntervalUs);
}

// The address nm prints for `pc`: relative to the load base unless the
// module is a fixed-address executable. The ELF header sits at the base.
static uintptr_t nm_address(uintptr_t pc, const Dl_info* info) {
  const uintptr_t base = (uintptr_t)info->dli_fbase;
  const Elf64_Ehdr* header = (const Elf64_Ehdr*)info->dli_fbase;
  if (header != NULL && header->e_type == ET_EXEC) return pc;
  return pc - base;
}

__attribute__((destructor)) static void pc_sample_stop(void) {
  set_timer(0);
  signal(SIGPROF, SIG_IGN);
  char path[PATH_MAX];
  const char* out = getenv("PC_SAMPLE_OUT");
  if (out == NULL || out[0] == '\0') {
    snprintf(path, sizeof(path), "pc_sample.%ld.txt", (long)getpid());
    out = path;
  }
  FILE* f = fopen(out, "w");
  if (f == NULL) {
    perror("pc_sample: cannot open output");
    return;
  }
  char exe[PATH_MAX];
  const ssize_t exe_len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  exe[exe_len > 0 ? exe_len : 0] = '\0';
  unsigned long n = __atomic_load_n(&num_samples, __ATOMIC_RELAXED);
  if (n > kMaxSamples) n = kMaxSamples;
  fprintf(f, "# pc_sample interval_us=%ld samples=%lu dropped=%lu\n",
          (long)kIntervalUs, n, __atomic_load_n(&dropped, __ATOMIC_RELAXED));
  for (unsigned long i = 0; i < n; ++i) {
    Dl_info info;
    if (dladdr((void*)samples[i], &info) == 0 || info.dli_fbase == NULL) {
      fprintf(f, "%#lx ?\n", (unsigned long)samples[i]);
      continue;
    }
    // The main program's dli_fname is its argv[0] or empty.
    const char* module = info.dli_fname;
    if (module == NULL || module[0] == '\0' ||
        strcmp(module, program_invocation_name) == 0) {
      module = exe;
    }
    fprintf(f, "%#lx %s\n", (unsigned long)nm_address(samples[i], &info),
            module);
  }
  fclose(f);
}
