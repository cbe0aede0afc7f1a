/* wait4(2) for the benchmark: reap a child process and report its peak
   resident set size, which Unix.waitpid does not expose. */

#define _DEFAULT_SOURCE
#include <errno.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* pid -> (exit code, or the negated signal number; peak RSS in KiB) */
value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  pid_t pid = Int_val(vpid), r;
  int status = 0, err = 0;
  struct rusage ru;
  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, 0, &ru);
    err = errno;
  } while (r < 0 && err == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4 failed");
  res = caml_alloc_tuple(2);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : -WTERMSIG(status)));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
