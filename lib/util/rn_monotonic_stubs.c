/* Monotonic clock for Rn_util.Timing.

   CLOCK_MONOTONIC is immune to NTP slews and wall-clock jumps, which
   corrupted long profiling runs under gettimeofday. */

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <time.h>

CAMLprim value rn_monotonic_ns(value unit)
{
  CAMLparam1(unit);
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  CAMLreturn(caml_copy_int64((int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec));
}
