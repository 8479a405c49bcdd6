#!/usr/bin/env bash
# Lists the `pub` and `pub(crate)` items, and the variants of `pub` and
# `pub(crate)` enums, that no other non-test file names: the candidates
# ROADMAP direction 12(a) prunes. `unreachable_pub` cannot find these
# when their module is `pub`.
#
#   scripts/unreached.sh [checkout=.]
#
# Items are read from `crates/` and `src/`; names are looked for there
# and in `benchmark/src` (frozen: what it names stays reached, and its
# own items are not listed). Test code is skipped: every file under a
# `tests/` or `examples/` directory, and every item (a `mod tests`
# included) under a `#[cfg(test)]` attribute.
#
# An item in an `impl T` block (or `impl Trait for T`) is `T::name`, and
# another file reaches it by `T::name` (`Self::name` inside an `impl T`,
# turbofish generics dropped) or by a `.name(` call in a file that names
# `T`. So a method shared by two types, or named like a std method
# (`len`, `size`…), is not reached by the other type's calls. Any other
# item, a free item or an enum variant, is reached by a path (`m::name`,
# `Enum::Variant`, `name::x`) or by a `use` that imports it; a bare
# identifier of the same name does not reach it, except in a file with a
# glob import. A file names a type `T` the same way, and an `Enum::T`
# path, where `Enum` has a variant `T`, names the variant, not the type.
# Comments and `pub use` lines name nothing, and neither does the line
# that defines a name (so `pub fn x` in one file does not reach `pub fn
# x` in another); string literals are read as code.
#
# Each kept item has a line `file name  # reason` in the checkout's
# `scripts/unreached.keep` (`name` is `T::name` in an `impl`). Prints
# every unreached item without one, every keep line without a reason, and
# every keep line that no longer matches an unreached item; exits 1 if it
# printed anything. bash + find/awk only.
set -euo pipefail

cd "${1:-.}"

find crates src benchmark/src -name target -prune -o -name '*.rs' -print 2>/dev/null |
    LC_ALL=C sort |
    awk -v keep=scripts/unreached.keep '
    BEGIN {
        q = sprintf("%c", 39)
        char_literal = q "(\\\\.|[^" q "\\\\])" q
    }
    # Drops comments; a `//` inside a string literal is not one. Block
    # comments are taken to open and close on one line. Char literals are
    # blanked, so a quote in one opens no string.
    function code(s,    i, c, out, quoted) {
        gsub(char_literal, q q, s)
        gsub(/\/\*.*\*\//, "", s)
        if (!index(s, "//")) return s
        if (!index(s, "\"")) { sub(/\/\/.*/, "", s); return s }
        out = ""
        for (i = 1; i <= length(s); i++) {
            c = substr(s, i, 1)
            if (quoted && c == "\\") { out = out c substr(s, i + 1, 1); i++; continue }
            if (c == "\"") quoted = !quoted
            else if (!quoted && substr(s, i, 2) == "//") break
            out = out c
        }
        return out
    }
    # The name a `pub`/`pub(crate)` item line defines ("" if none); sets
    # `is_enum` when the item is an enum.
    function item(s,    t) {
        is_enum = 0
        t = s
        sub(/^[ \t]+/, "", t)
        if (t !~ /^pub(\(crate\))? /) return ""
        sub(/^pub(\(crate\))? +/, "", t)
        sub(/^((const|unsafe|async) +)+fn /, "fn ", t)
        if (t !~ /^(fn|struct|enum|trait|type|const|static|union|mod) +[A-Za-z_]/) return ""
        is_enum = t ~ /^enum /
        sub(/^[a-z]+ +/, "", t)
        sub(/[^A-Za-z0-9_].*/, "", t)
        return t
    }
    function add(name, file) {
        if (!((file " " name) in listed_at)) defs[++ndefs] = file " " name
        listed_at[file " " name] = 1
    }
    # The type an `impl` line is for: the last path segment of what follows
    # `impl` and its generics, or `for` in a trait impl.
    function impl_type(s,    t, i, c, d) {
        t = s
        gsub(/->/, "", t)
        sub(/^(unsafe +)?impl */, "", t)
        if (substr(t, 1, 1) == "<") {
            d = 0
            for (i = 1; i <= length(t); i++) {
                c = substr(t, i, 1)
                if (c == "<") d++
                else if (c == ">" && --d == 0) break
            }
            t = substr(t, i + 1)
        }
        sub(/.* for /, "", t)
        sub(/^[ \t&]*(dyn +)?/, "", t)
        sub(/[^A-Za-z0-9_:].*/, "", t)
        sub(/.*::/, "", t)
        return t
    }
    function note(key, file,    cut, head, tail) {
        if (!((key, file) in qseen)) { qseen[key, file] = 1; qfiles[key]++ }
        # The head of a path names its item; the tail is kept with its
        # prefix, since `Enum::T` names a variant and not the type `T`.
        cut = index(key, "::")
        head = substr(key, 1, cut - 1)
        tail = substr(key, cut + 2)
        named[head, file] = 1
        prefixes[tail, file] = prefixes[tail, file] " " head
    }
    # Whether `file` names the item `w` by a path or an import, or by any
    # identifier under a glob import. For a variant of the enum `of`, the
    # path is `of::w`; for any other item, a path `P::w` where `P` is an
    # enum with a variant `w` names the variant instead.
    function names(w, file, of,    n, p, i) {
        if ((w, file) in named || (glob[file] && (w, file) in seen)) return 1
        n = split(prefixes[w, file], p, " ")
        for (i = 1; i <= n; i++)
            if (of != "" ? p[i] == of : !((p[i] "::" w) in variants)) return 1
        return 0
    }
    # Notes every `A::b` on the line (`Self::b` inside an `impl T` is
    # `T::b`), and every method call `.b(`.
    function qualify(s, file,    t, pair) {
        while (match(s, /::<[^<>]*(<[^<>]*>[^<>]*)*>/))
            s = substr(s, 1, RSTART - 1) substr(s, RSTART + RLENGTH)
        t = s
        while (match(t, /[A-Za-z_][A-Za-z0-9_]*[ \t]*::[ \t]*[A-Za-z_][A-Za-z0-9_]*/)) {
            pair = substr(t, RSTART, RLENGTH)
            t = substr(t, RSTART + index(pair, "::") + 1)
            gsub(/[ \t]/, "", pair)
            if (pair ~ /^Self::/ && impl_t != "") pair = impl_t substr(pair, 5)
            note(pair, file)
        }
        t = s
        while (match(t, /\.[ \t]*[A-Za-z_][A-Za-z0-9_]*[ \t]*(\(|::<)/)) {
            pair = substr(t, RSTART + 1, RLENGTH - 1)
            t = substr(t, RSTART + RLENGTH)
            sub(/[ \t]*(\(|::<)$/, "", pair)
            sub(/^[ \t]*/, "", pair)
            called[pair, file] = 1
        }
    }
    {
        file = $0
        n = split(file, part, "/")
        whole = 0
        for (i = 1; i < n; i++)
            if (part[i] == "tests" || part[i] == "examples") whole = 1
        if (whole) next
        listed = part[1] != "benchmark"
        scanned[++nscanned] = file
        depth = 0; enum_depth = -1; impl_depth = -1; impl_t = ""; in_use = 0; skip = 0
        importing = 0
        while ((getline line < file) > 0) {
            # `s` is code; `bare` also has its string literals emptied, so
            # it is what the braces and the item patterns are read from.
            # Strings still name things: `format!("{SPEC_MAGIC}")`.
            s = code(line)
            if (s ~ /^[ \t]*$/) continue
            bare = s
            gsub(/r#+"([^"]|"[^#])*"#+/, "\"\"", bare)
            gsub(/"(\\.|[^"\\])*"/, "\"\"", bare)
            stripped = bare
            sub(/^[ \t]+/, "", stripped)
            opens = gsub(/[{]/, "{", bare); closes = gsub(/[}]/, "}", bare)
            # The item after a `#[cfg(test)]` is test code: skip its
            # attributes, then the item up to its closing brace or `;`. A
            # top-level test module runs to the end of the file.
            if (skip) {
                depth += opens - closes
                if (stripped ~ /^#\[/) continue
                if (skip_depth == 0 && !skip_open && stripped ~ /^mod /) break
                if (opens) skip_open = 1
                if (skip_open ? depth <= skip_depth : bare ~ /;[ \t]*$/) skip = 0
                continue
            }
            if (stripped ~ /^#\[cfg\(test\)\]/) {
                skip = 1; skip_open = 0; skip_depth = depth
                continue
            }
            # A `pub use` re-exports; it does not use. It may span lines.
            if (in_use || stripped ~ /^pub(\(crate\))? use /) {
                depth += opens - closes
                in_use = bare !~ /;/
                continue
            }
            # A `use` names what it imports. It may span lines.
            imports = importing || stripped ~ /^use /
            if (imports) {
                importing = bare !~ /;/
                if (stripped ~ /::[ \t]*\*[ \t]*;/) glob[file] = 1
            }
            if (impl_depth < 0 && stripped ~ /^(unsafe +)?impl[ <]/) {
                impl_depth = depth
                impl_t = impl_type(stripped)
            }
            name = item(bare)
            of = ""
            if (name == "" && enum_depth >= 0 && depth == enum_depth + 1 &&
                stripped ~ /^[A-Z][A-Za-z0-9_]*[ \t]*([{(,=]|$)/) {
                name = stripped
                sub(/[^A-Za-z0-9_].*/, "", name)
                of = enum_name
                variants[of "::" name] = 1
            }
            if (listed && of != "") { add(name, file); variant_of[file " " name] = of }
            else if (listed && name != "")
                add(impl_depth >= 0 && depth == impl_depth + 1 ? impl_t "::" name : name, file)
            if (is_enum && enum_depth < 0) { enum_depth = depth; enum_name = name }
            # Every identifier on the line is seen, except the one the line
            # defines; an identifier of a `use` is also named.
            words = s
            gsub(/[^A-Za-z0-9_]+/, " ", words)
            k = split(words, word, " ")
            skipped = 0
            for (i = 1; i <= k; i++) {
                w = word[i]
                if (w == name && !skipped) { skipped = 1; continue }
                seen[w, file] = 1
                if (imports) named[w, file] = 1
            }
            qualify(s, file)
            depth += opens - closes
            if (enum_depth >= 0 && depth <= enum_depth && (opens || closes)) enum_depth = -1
            if (impl_depth >= 0 && depth <= impl_depth && (opens || closes)) {
                impl_depth = -1; impl_t = ""
            }
        }
        close(file)
    }
    END {
        status = 0
        while ((getline line < keep) > 0) {
            if (line ~ /^[ \t]*(#|$)/) continue
            split(line, f, " ")
            kept[f[1] " " f[2]] = 0
            order[++nkept] = f[1] " " f[2]
            if (line !~ /^[^ ]+ [^ ]+ +# *[^ ]/) { print "keep line without a reason: " line; status = 1 }
        }
        for (d = 1; d <= ndefs; d++) {
            split(defs[d], f, " ")
            if (split(f[2], m, "::") == 2) {
                elsewhere = qfiles[f[2]] - ((f[2], f[1]) in qseen ? 1 : 0)
                for (g = 1; g <= nscanned && !elsewhere; g++)
                    elsewhere = scanned[g] != f[1] && (m[2], scanned[g]) in called &&
                                names(m[1], scanned[g], "")
            } else {
                elsewhere = 0
                for (g = 1; g <= nscanned && !elsewhere; g++)
                    elsewhere = scanned[g] != f[1] && names(f[2], scanned[g], variant_of[defs[d]])
            }
            if (elsewhere > 0) continue
            if (defs[d] in kept) { kept[defs[d]] = 1; continue }
            print "unreached: " defs[d]
            status = 1
        }
        for (k = 1; k <= nkept; k++)
            if (!kept[order[k]]) { print "stale keep line: " order[k]; status = 1 }
        exit status
    }'
