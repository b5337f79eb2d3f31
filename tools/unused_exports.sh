#!/usr/bin/env bash
# Prints every top-level `val` of a lib/**/*.mli that no source file other
# than its own module's .ml/.mli names as `Module.name`, one per line, and
# exits 1 when it prints anything.  Source files are the .ml/.mli under
# lib/, bin/, test/, examples/, bench/ and perfbench/.  Every library is
# unwrapped, so a module is named after its file.  A reference through
# `open` or a module alias is not seen: write the full name instead.
#
#   bash tools/unused_exports.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# "file Module.name" for every qualified lower-case name in every source;
# a doc link {!Module.name} is not a use.
refs=$(grep -rnoE --include='*.ml' --include='*.mli' \
  "(\{!)?[A-Z][A-Za-z0-9_']*\.[a-z_][A-Za-z0-9_']*" \
  lib bin test examples bench perfbench |
  awk -F: '$3 !~ /^\{!/ { print $1, $3 }' | sort -u)

# "file Module.name" for every top-level val of every lib interface.
vals=$(find lib -name '*.mli' | sort | while read -r mli; do
  base=$(basename "$mli" .mli)
  mod="$(printf %s "${base:0:1}" | tr '[:lower:]' '[:upper:]')${base:1}"
  sed -nE "s/^val ([a-z_][A-Za-z0-9_']*).*/\1/p" "$mli" |
    sed "s|^|$mli $mod.|"
done)

unused=$(awk '
  NR == FNR { used[$2] = used[$2] " " $1; next }
  {
    own_ml = $1; sub(/\.mli$/, ".ml", own_ml)
    n = split(used[$2], files, " "); found = 0
    for (i = 1; i <= n; i++)
      if (files[i] != $1 && files[i] != own_ml) { found = 1; break }
    if (!found) print $1 ": " $2
  }' <(printf '%s\n' "$refs") <(printf '%s\n' "$vals"))

if [ -n "$unused" ]; then
  printf '%s\n' "$unused"
  exit 1
fi
