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
# With --programs, a use from test/ does not count: the interfaces are
# what the programs (bin/, examples/, bench/, perfbench/ and the other
# lib/ modules) use.  The only exports allowed to serve tests alone are
# the seams listed in tools/test_seams.txt, one `Module.name  reason`
# line each (blank lines and `#` comments are skipped).  The mode prints
# every test-only export not listed, every line without a reason, and
# every stale line: a name that is no longer exported, or one a program
# now uses.
#
#   bash tools/unused_exports.sh
#   bash tools/unused_exports.sh --programs
set -euo pipefail
cd "$(dirname "$0")/.."

users="lib bin test examples bench perfbench"
seams=""
case "${1:-}" in
  "") ;;
  --programs)
    users="lib bin examples bench perfbench"
    seams=tools/test_seams.txt
    ;;
  *)
    echo "usage: $0 [--programs]" >&2
    exit 2
    ;;
esac

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
  $users |
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

if [ -n "$seams" ]; then
  listed=$(sed -e 's/#.*//' "$seams" | awk 'NF { print $1 }' | sort)
  exported=$(printf '%s\n' "$vals" | awk 'NF { print $2 }' | sort -u)
  unused=$(
    # A test-only export the list does not name.
    printf '%s\n' "$unused" | awk -v listed="$listed" '
      BEGIN { n = split(listed, l, "\n"); for (i = 1; i <= n; i++) ok[l[i]] = 1 }
      NF && !($2 in ok)'
    # A listed name with no reason, one that is not exported, or one
    # that a program uses.
    sed -e 's/#.*//' "$seams" | awk -v exported="$exported" -v unused="$unused" -v file="$seams" '
      BEGIN {
        n = split(exported, e, "\n"); for (i = 1; i <= n; i++) is_val[e[i]] = 1
        n = split(unused, u, "\n"); for (i = 1; i <= n; i++) { split(u[i], f, " "); test_only[f[2]] = 1 }
      }
      NF == 1 { print file ": " $1 ": no reason given" }
      NF && !($1 in is_val) { print file ": " $1 ": stale, not an exported val"; next }
      NF && !($1 in test_only) { print file ": " $1 ": stale, a program uses it" }')
fi

if [ -n "$unused" ]; then
  printf '%s\n' "$unused"
  exit 1
fi
