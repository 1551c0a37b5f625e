/* Monotonic clock for Rn_util.Timing.

   CLOCK_MONOTONIC is immune to NTP slews and wall-clock jumps, which
   corrupted long profiling runs under gettimeofday.  The nanosecond
   count is returned as a tagged OCaml int (63 bits hold about 146
   years), so the call allocates nothing and can be declared
   [@@noalloc]. */

#include <caml/mlvalues.h>
#include <time.h>

CAMLprim value rn_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + ts.tv_nsec);
}
