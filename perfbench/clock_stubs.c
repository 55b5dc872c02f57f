/* Monotonic clock for the benchmark's timings (wall clocks can step). */
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double fvbench_now(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value fvbench_now_byte(value unit)
{
  return caml_copy_double(fvbench_now(unit));
}
