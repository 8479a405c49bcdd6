#!/usr/bin/env python3
"""Turns rip_sample's output into a profile: samples per function and per
source line, through binutils' addr2line (build the binary with
CARGO_PROFILE_RELEASE_DEBUG=line-tables-only; see scripts/rip_sample.c).

    scripts/rip_symbolize.py <binary> <samples-file> [rows=25]

A function row counts a sample wherever the function appears in the
address's inline chain (`addr2line -i`), so an inlined callee and the
function it was inlined into both get it: shares overlap, by design.
Addresses outside the binary (libc, vdso) are grouped as "[outside]".
"""
import collections, subprocess, sys

binary, samples_path = sys.argv[1], sys.argv[2]
rows = int(sys.argv[3]) if len(sys.argv) > 3 else 25
lines = open(samples_path).read().split("\n")
base = int(lines[0].split()[2], 16)
counts = collections.Counter(int(line, 16) for line in lines[1:] if line)
total = sum(counts.values())
inside = sorted(a for a in counts if base <= a < base + (1 << 30))
out = subprocess.run(["addr2line", "-e", binary, "-f", "-C", "-i", "-a"] + [hex(a - base) for a in inside],
                     capture_output=True, text=True, check=True).stdout.split("\n")
by_function, by_line = collections.Counter(), collections.Counter()
by_function["[outside]"] = total - sum(counts[a] for a in inside)
address, chain = None, []
for text in out + ["0x0"]:
    if text.startswith("0x"):  # -a prints each address before its chain
        for function in set(chain[0::2]):
            by_function[function] += counts[address]
        if chain:
            by_line[chain[0] + "  " + chain[1].split("/")[-1]] += counts[address]
        address, chain = int(text, 16) + base, []
    elif text:
        chain.append(text)
for title, table in (("function (inline chains included)", by_function), ("innermost function  file:line", by_line)):
    print(f"\n{total} samples, by {title}")
    for name, n in table.most_common(rows):
        print(f"{100 * n / total:6.2f}%  {n:7d}  {name}")
