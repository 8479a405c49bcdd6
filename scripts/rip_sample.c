/*
 * rip_sample — a sampling profiler for boxes without `perf`: runs a
 * command under ptrace, stops it every <interval> microseconds, and
 * writes the instruction pointer of its main thread, one hex address a
 * line, after a "# base <hex> <path>" line giving where the executable is
 * mapped. x86-64 Linux only; threads the command starts are not sampled
 * (the replay loops this was written for run on the main thread).
 *
 *   cc -O2 -o /root/scratch/rip_sample scripts/rip_sample.c
 *   CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR=/root/scratch/dbg \
 *       cargo build --release --offline --manifest-path benchmark/Cargo.toml
 *   setarch -R /root/scratch/rip_sample 1000 /root/scratch/rip.txt -- \
 *       /root/scratch/dbg/release/sybil-benchmark --workload replay_stream --seed 1 --seconds 10 --trace 0
 *   scripts/rip_symbolize.py /root/scratch/dbg/release/sybil-benchmark /root/scratch/rip.txt
 *
 * `setarch -R` switches address randomisation off so two runs' addresses
 * compare; the symbolizer needs only the base line. A stop costs the
 * command two context switches, so keep the interval at or above ~500 us
 * and read shares, not wall time, off a sampled run.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/ptrace.h>
#include <sys/user.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

static void die(const char *what) {
    perror(what);
    exit(1);
}

/* The lowest mapping of the executable itself, from /proc/<pid>/maps. */
static void write_base(pid_t pid, FILE *out) {
    char path[64], exe[4096], line[4352];
    snprintf(path, sizeof path, "/proc/%d/exe", pid);
    ssize_t n = readlink(path, exe, sizeof exe - 1);
    if (n < 0) die("readlink /proc/<pid>/exe");
    exe[n] = 0;
    snprintf(path, sizeof path, "/proc/%d/maps", pid);
    FILE *maps = fopen(path, "r");
    if (!maps) die("open /proc/<pid>/maps");
    while (fgets(line, sizeof line, maps)) {
        if (strstr(line, exe)) {
            fprintf(out, "# base %lx %s\n", strtoul(line, NULL, 16), exe);
            break;
        }
    }
    fclose(maps);
}

int main(int argc, char **argv) {
    if (argc < 5 || strcmp(argv[3], "--") != 0 || atol(argv[1]) <= 0) {
        fprintf(stderr, "usage: rip_sample <interval-us> <out-file> -- <command> [args...]\n");
        return 2;
    }
    long interval_us = atol(argv[1]);
    FILE *out = fopen(argv[2], "w");
    if (!out) die(argv[2]);

    pid_t pid = fork();
    if (pid < 0) die("fork");
    if (pid == 0) {
        if (ptrace(PTRACE_TRACEME, 0, 0, 0) < 0) die("PTRACE_TRACEME");
        execvp(argv[4], argv + 4);
        die(argv[4]);
    }

    int status;
    /* The exec stop: the new image is mapped, nothing has run yet. */
    if (waitpid(pid, &status, 0) < 0 || !WIFSTOPPED(status)) die("waiting for exec");
    write_base(pid, out);
    if (ptrace(PTRACE_CONT, pid, 0, 0) < 0) die("PTRACE_CONT");

    struct timespec pause = {interval_us / 1000000, (interval_us % 1000000) * 1000};
    unsigned long samples = 0;
    for (;;) {
        nanosleep(&pause, NULL);
        if (kill(pid, SIGSTOP) < 0) break;
        if (waitpid(pid, &status, 0) < 0) die("waitpid");
        if (WIFEXITED(status) || WIFSIGNALED(status)) break;
        int deliver = 0;
        if (WSTOPSIG(status) == SIGSTOP) {
            struct user_regs_struct regs;
            if (ptrace(PTRACE_GETREGS, pid, 0, &regs) == 0) {
                fprintf(out, "%llx\n", regs.rip);
                samples++;
            }
        } else {
            /* The command's own signal arrived first: pass it on. Our
             * SIGSTOP is still pending and is reported at the next wait. */
            deliver = WSTOPSIG(status);
        }
        if (ptrace(PTRACE_CONT, pid, 0, deliver) < 0) break;
    }
    fclose(out);
    fprintf(stderr, "rip_sample: %lu samples in %s\n", samples, argv[2]);
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    return 1;
}
