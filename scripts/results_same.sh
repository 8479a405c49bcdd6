#!/usr/bin/env bash
# Whether two `results/` directories hold the same experiment results:
# the check that a change moved no cell of the paper experiments.
#
#   scripts/results_same.sh <results-a> <results-b>
#
# Every file under either directory must be on both sides. `.store` files
# are compared as sorted lines, because the worker pool appends records in
# completion order, so two cold runs of the same commit differ in line
# order; every other file (`.csv`, `.spec`) is compared byte for byte.
# Prints one line per file that differs or is missing on one side, then a
# summary. Exits 0 when all files match, 1 when any does not or both
# directories are empty, 2 on a usage error. bash + find/sort/cmp only.
set -euo pipefail

if [ "$#" -ne 2 ] || [ ! -d "$1" ] || [ ! -d "$2" ]; then
    sed -n '2,13s/^# \{0,1\}//p' "$0" >&2
    exit 2
fi
a=$1
b=$2

# The files under a directory, as paths relative to it, one a line.
files() { (cd "$1" && find . -type f | sed 's|^\./||' | LC_ALL=C sort); }

checked=0
failed=0
while IFS= read -r file; do
    checked=$((checked + 1))
    if [ ! -f "$a/$file" ]; then
        echo "only in $b: $file"
    elif [ ! -f "$b/$file" ]; then
        echo "only in $a: $file"
    elif case $file in *.store) true ;; *) false ;; esac; then
        cmp -s <(LC_ALL=C sort "$a/$file") <(LC_ALL=C sort "$b/$file") && continue
        echo "differs (sorted lines): $file"
    else
        cmp -s "$a/$file" "$b/$file" && continue
        echo "differs: $file"
    fi
    failed=$((failed + 1))
done < <(LC_ALL=C sort -u <(files "$a") <(files "$b"))

if [ "$checked" -eq 0 ]; then
    echo "no files under either directory"
    exit 1
fi
if [ "$failed" -ne 0 ]; then
    echo "results differ: $failed of $checked files"
    exit 1
fi
echo "results same: $checked files"
