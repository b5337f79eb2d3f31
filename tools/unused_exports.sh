#!/usr/bin/env bash
# Prints every top-level `val` of a lib/**/*.mli that no source file other
# than its own module's .ml/.mli names as `Module.name`, one per line, and
# exits 1 when it prints anything.  Source files are the .ml/.mli under
# lib/, bin/, test/, examples/, bench/ and perfbench/.  Every library is
# unwrapped, so a module is named after its file.  A reference through
# `open` or a module alias is not seen: write the full name instead.
# Comments (doc comments and their {!Module.name} links included) are
# not uses: they are blanked before anything is collected.
#
#   bash tools/unused_exports.sh
set -euo pipefail
cd "$(dirname "$0")/.."

src=$(mktemp -d)
trap 'rm -rf "$src"' EXIT

# A copy of every source under $src with its comments blanked (newlines
# kept).  Comments nest, and as in the OCaml lexer a string, quoted
# string or character literal is one token, inside a comment or out, so
# a "(*" or "*)" in one delimits nothing.
find lib bin test examples bench perfbench \( -name '*.ml' -o -name '*.mli' \) -print0 |
  xargs -0 perl -MFile::Path=make_path -MFile::Basename=dirname -e '
    my $dst = shift @ARGV;
    local $/;
    for my $file (@ARGV) {
      open my $in, "<", $file or die "$file: $!";
      my $s = <$in>;
      close $in;
      my ($out, $depth) = ("", 0);
      while ($s =~ m~\G(?:
          ("(?:[^"\\]|\\.)*")                        # string
        | (\{([a-z_]*)\|.*?\|\3\})                   # quoted string
        | (\x27(?:[^\\\x27\n]|\\(?:[\\\x27"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3}))\x27)  # char
        | (\(\*)                                     # comment opens
        | (\*\))                                     # comment closes
        | [^"{\x27(*]+ | .)~gsx) {
        my $tok = $&;
        if (defined $5) { $depth++ }
        my $blank = $depth > 0;
        if (defined $6 && $depth > 0) { $depth-- }
        $tok =~ s/[^\n]/ /g if $blank;
        $out .= $tok;
      }
      make_path("$dst/" . dirname($file));
      open my $o, ">", "$dst/$file" or die "$dst/$file: $!";
      print $o $out;
      close $o;
    }' "$src"

# "file Module.name" for every qualified lower-case name in every source.
refs=$(cd "$src" && grep -rnoE --include='*.ml' --include='*.mli' \
  "[A-Z][A-Za-z0-9_']*\.[a-z_][A-Za-z0-9_']*" \
  lib bin test examples bench perfbench |
  awk -F: '{ print $1, $3 }' | sort -u)

# "file Module.name" for every top-level val of every lib interface.
vals=$(cd "$src" && find lib -name '*.mli' | sort | while read -r mli; do
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
