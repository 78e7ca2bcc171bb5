#!/usr/bin/env bash
# Prints net non-test Rust lines of code per crate and in total, from a base
# commit to the working tree:
#
#   scripts/net_loc.sh [BASE]     # BASE defaults to HEAD
#
# Counted: `.rs` files outside `tests/` directories and `vendor/`, and in
# each file only the lines before its first `#[cfg(test)]` (unit-test
# modules sit at the end of a file). The working tree side covers tracked
# and untracked files that git does not ignore. Files under `crates/<name>/`
# count towards `<name>`; anything else towards its top-level directory.
set -euo pipefail
cd "$(dirname "$0")/.."

base="${1:-HEAD}"
git rev-parse --verify --quiet "$base^{commit}" > /dev/null || {
    echo "error: unknown base commit '$base'" >&2
    exit 1
}

# Keeps counted paths: Rust sources outside tests/ and vendor/.
counted() {
    grep -E '\.rs$' | grep -Ev '(^|/)tests/|^vendor/' || true
}

# Lines before the first `#[cfg(test)]` on stdin. Reads to the end so the
# writer of a pipe never sees SIGPIPE.
non_test_lines() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { seen = 1 } !seen { n++ } END { print n + 0 }'
}

group_of() {
    case "$1" in
    crates/*) echo "$1" | cut -d/ -f2 ;;
    *) echo "$1" | cut -d/ -f1 ;;
    esac
}

declare -A before after
while IFS= read -r path; do
    g=$(group_of "$path")
    n=$(git show "$base:$path" | non_test_lines)
    before[$g]=$((${before[$g]:-0} + n))
done < <(git ls-tree -r --name-only "$base" | counted)

while IFS= read -r path; do
    [ -f "$path" ] || continue # deleted but still in the index
    g=$(group_of "$path")
    n=$(non_test_lines < "$path")
    after[$g]=$((${after[$g]:-0} + n))
done < <(git ls-files --cached --others --exclude-standard | counted)

printf '%-14s %8s %8s %8s\n' "crate" "base" "now" "net"
total_before=0
total_after=0
for g in $(printf '%s\n' "${!before[@]}" "${!after[@]}" | sort -u); do
    b=${before[$g]:-0}
    a=${after[$g]:-0}
    total_before=$((total_before + b))
    total_after=$((total_after + a))
    printf '%-14s %8d %8d %+8d\n' "$g" "$b" "$a" $((a - b))
done
printf '%-14s %8d %8d %+8d\n' "total" "$total_before" "$total_after" \
    $((total_after - total_before))
