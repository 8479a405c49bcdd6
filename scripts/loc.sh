#!/usr/bin/env bash
# The line counts ROADMAP aim 2 is tracked by: per crate and in total,
# non-test and test lines of Rust.
#
#   scripts/loc.sh [checkout=.]
#
# Counts every `*.rs` under `crates/`, `src/`, `tests/` and `examples/`
# (`target/` skipped). A file is split at its first `#[cfg(test)]` line
# that starts at column 0 (a test module; an indented one gates a single
# item inside non-test code): what is above is non-test, that line and
# what is below is test; a file
# under a `tests/` or `examples/` directory counts whole as test. A bench
# target (`benches/`) ships measurement code and is split like any other
# file. `benchmark/` is its own workspace and is reported on its own
# line, outside the total. bash + find/awk only.
set -euo pipefail

cd "${1:-.}"
find crates src tests examples benchmark -name target -prune -o -name '*.rs' -print 2>/dev/null |
    LC_ALL=C sort |
    awk '
    # Adds one file: its group (crate name, "root" or "benchmark") and how
    # its lines split.
    {
        file = $0
        n = split(file, part, "/")
        group = part[1] == "crates" ? part[2] : (part[1] == "benchmark" ? "benchmark" : "root")
        whole = 0
        for (i = 1; i < n; i++)
            if (part[i] == "tests" || part[i] == "examples") whole = 1
        if (!(group in seen)) { seen[group] = 1; order[++groups] = group }
        in_test = whole
        while ((getline line < file) > 0) {
            if (!in_test && line ~ /^#\[cfg\(test\)\]/) in_test = 1
            if (in_test) test[group]++; else code[group]++
        }
        close(file)
    }
    END {
        printf "%-14s %9s %9s %9s\n", "", "non-test", "test", "all"
        for (g = 1; g <= groups; g++) {
            group = order[g]
            if (group == "benchmark") continue
            row(group, code[group], test[group])
            all_code += code[group]; all_test += test[group]
        }
        row("total", all_code, all_test)
        if ("benchmark" in seen) row("benchmark", code["benchmark"], test["benchmark"])
    }
    function row(name, c, t) { printf "%-14s %9d %9d %9d\n", name, c, t, c + t }'
