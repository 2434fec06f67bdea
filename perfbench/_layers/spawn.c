/* spawn PROG ARGS... — run PROG, then write "MAXRSS_KB WALL_NS\n" to
   file descriptor 3 and exit with PROG's status.

   A child's ru_maxrss includes the resident size of the process it was
   forked from, so a child of the (large) benchmark interpreter would
   report the interpreter's size. This helper is small, so the size it
   reports is PROG's own. The wall time runs from fork to reap. */
#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdio.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

int main(int argc, char **argv) {
  if (argc < 2) {
    fputs("usage: spawn PROG ARGS...\n", stderr);
    return 125;
  }
  fcntl(3, F_SETFD, FD_CLOEXEC);
  struct timespec t0, t1;
  clock_gettime(CLOCK_MONOTONIC, &t0);
  pid_t pid = fork();
  if (pid < 0) return 126;
  if (pid == 0) {
    execv(argv[1], argv + 1);
    _exit(127);
  }
  int status;
  struct rusage ru;
  if (wait4(pid, &status, 0, &ru) < 0) return 126;
  clock_gettime(CLOCK_MONOTONIC, &t1);
  long long ns = (long long)(t1.tv_sec - t0.tv_sec) * 1000000000LL +
                 (t1.tv_nsec - t0.tv_nsec);
  dprintf(3, "%ld %lld\n", ru.ru_maxrss, ns);
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + WTERMSIG(status);
}
