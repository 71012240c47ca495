/* Process CPU time (user + system) in nanoseconds.  The benchmark is one
   OS thread, so this is also the CPU time of the running simulated
   client between two marks.  Non-allocating, so reading the clock adds
   no words to the allocation counts it brackets. */

#include <time.h>
#include <caml/mlvalues.h>

value perfbench_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec);
}
