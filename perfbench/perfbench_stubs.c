/* Monotonic clock and wait4(2) for the benchmark harness.

   OCaml's Unix library has neither a monotonic clock nor a way to read
   a reaped child's peak resident set, so these two calls live here. */

#define _GNU_SOURCE
#include <errno.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

value pb_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

/* Block until [pid] ends.  Returns (code, maxrss_kb): the exit status,
   or 128 + signal number for a killed child, and the child's peak
   resident set in KiB as the kernel accounts it. */
value pb_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  memset(&ru, 0, sizeof ru);
  do {
    caml_enter_blocking_section();
    r = wait4(Int_val(vpid), &status, 0, &ru);
    caml_leave_blocking_section();
  } while (r < 0 && errno == EINTR);
  if (r < 0) caml_failwith(strerror(errno));
  res = caml_alloc_tuple(2);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : 128 + WTERMSIG(status)));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
