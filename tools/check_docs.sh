#!/bin/sh
# Documentation drift check, run as a CTest (`check_docs`):
#
#   1. docs/cli.md must cover the real CLI: every subcommand and every flag
#      printed by `healers help` appears in the reference, and every
#      `healers <subcommand>` the reference documents still exists.
#   2. Every relative markdown link in the repo's *.md files resolves to a
#      file that exists (external http(s) links and pure #anchors are not
#      checked).
#   3. If the CLI exposes repair mode (`--repair` in `healers help`), the
#      repair documentation must exist and stay reachable: docs/repair.md is
#      present and referenced from docs/cli.md, docs/architecture.md, and
#      README.md.
#   4. Same for debloat mode: while `--debloat` exists, docs/debloat.md must
#      be present and referenced from the same three entry points.
#   5. Every row of a docs/cli.md flag table names a real flag, and its
#      default column is the default the binary uses, as listed by
#      `healers help --defaults`.
#
# Usage: tools/check_docs.sh <healers-binary> <repo-root>
set -eu

healers="${1:?usage: check_docs.sh <healers-binary> <repo-root>}"
root="${2:?usage: check_docs.sh <healers-binary> <repo-root>}"
cli_doc="$root/docs/cli.md"
fail=0

[ -f "$cli_doc" ] || { echo "check_docs: missing $cli_doc" >&2; exit 1; }

help_text="$("$healers" help)"

# --- 1a. every real subcommand and flag is documented -----------------------
# Subcommands are the first word of each indented usage line; continuation
# lines (deeper indentation or punctuation starts) don't introduce commands.
commands="$(printf '%s\n' "$help_text" | sed -n 's/^  \([a-z][a-z-]*\).*/\1/p' | sort -u)"
flags="$(printf '%s\n' "$help_text" | grep -o -- '--[a-z-]*' | sort -u)"

for cmd in $commands; do
  if ! grep -q "healers $cmd" "$cli_doc"; then
    echo "check_docs: subcommand '$cmd' is in 'healers help' but not documented in docs/cli.md" >&2
    fail=1
  fi
done
for flag in $flags; do
  if ! grep -q -- "$flag" "$cli_doc"; then
    echo "check_docs: flag '$flag' is in 'healers help' but not documented in docs/cli.md" >&2
    fail=1
  fi
done

# --- 1b. no documented subcommand has rotted away ---------------------------
# The reference marks each documented subcommand with a '### `healers <cmd>'
# heading; each must still be a real command.
doc_commands="$(sed -n 's/^### `healers \([a-z][a-z-]*\).*/\1/p' "$cli_doc" | sort -u)"
for cmd in $doc_commands; do
  if ! printf '%s\n' "$commands" | grep -qx "$cmd"; then
    echo "check_docs: docs/cli.md documents 'healers $cmd' but 'healers help' does not list it" >&2
    fail=1
  fi
done

# --- 1c. repair mode ships with its documentation ---------------------------
# The repair flag is only as usable as its policy spec; if the CLI grows (or
# keeps) --repair, docs/repair.md must exist and the entry points must link it.
if printf '%s\n' "$flags" | grep -qx -- '--repair'; then
  if [ ! -f "$root/docs/repair.md" ]; then
    echo "check_docs: 'healers help' lists --repair but docs/repair.md is missing" >&2
    fail=1
  else
    for ref in docs/cli.md docs/architecture.md README.md; do
      if ! grep -q 'repair\.md' "$root/$ref"; then
        echo "check_docs: $ref does not reference docs/repair.md (required while --repair exists)" >&2
        fail=1
      fi
    done
  fi
fi

# --- 1d. debloat mode ships with its documentation --------------------------
# Demand loading is a security contract (out-of-profile calls trap); if the
# CLI grows (or keeps) --debloat, docs/debloat.md must exist and the entry
# points must link it.
if printf '%s\n' "$flags" | grep -qx -- '--debloat'; then
  if [ ! -f "$root/docs/debloat.md" ]; then
    echo "check_docs: 'healers help' lists --debloat but docs/debloat.md is missing" >&2
    fail=1
  else
    for ref in docs/cli.md docs/architecture.md README.md; do
      if ! grep -q 'debloat\.md' "$root/$ref"; then
        echo "check_docs: $ref does not reference docs/debloat.md (required while --debloat exists)" >&2
        fail=1
      fi
    done
  fi
fi

# --- 1e. documented defaults are the binary's own --------------------------
# `healers help --defaults` prints "<flag> <default>" per flag, read from the
# CLI's flag tables; "-" means the command picks the value (stdout, none, a
# per-command capacity), so any wording passes there. Rows of the tables
# headed "| flag | default | meaning |" are "| `<flag> [ARG]` | <default> |
# ...", with backticks and escaped pipes (`fork\|fresh`) allowed.
drift="$("$healers" help --defaults | awk -v doc="$cli_doc" '
  { listed[$1] = $2 }
  END {
    section = "common flags"
    while ((getline line < doc) > 0) {
      if (line ~ /^### `healers /) { split(line, head, /[` ]+/); section = head[2] " " head[3] }
      if (line ~ /^\| flag \| default \|/) { table = 1; continue }
      if (line !~ /^\|/) { table = 0; continue }
      if (!table || line ~ /^\|---/) continue
      gsub(/\\\|/, "/", line); gsub(/`/, "", line)
      split(line, column, "|")
      split(column[2], words, " ")
      flag = words[1]
      value = column[3]; gsub(/^ +| +$/, "", value)
      if (!(flag in listed)) {
        print section ": documented flag " flag " is not a healers flag"
      } else if (listed[flag] != "-" && listed[flag] != value) {
        print section ": " flag " is documented with default " value " but healers uses " listed[flag]
      }
    }
  }')"
if [ -n "$drift" ]; then
  printf '%s\n' "$drift" | sed 's/^/check_docs: /' >&2
  fail=1
fi

# --- 2. every relative markdown link resolves -------------------------------
for md in "$root"/*.md "$root"/docs/*.md; do
  [ -f "$md" ] || continue
  dir="$(dirname "$md")"
  # Extract ](target) link targets; one per line, tolerating several per line.
  links="$(grep -o '](\([^)]*\))' "$md" | sed 's/^](\(.*\))$/\1/')" || continue
  for link in $links; do
    case "$link" in
      http://*|https://*|\#*|mailto:*) continue ;;
    esac
    target="${link%%#*}"                # drop an in-file anchor
    [ -n "$target" ] || continue
    if [ ! -e "$dir/$target" ]; then
      echo "check_docs: broken link '$link' in ${md#"$root"/}" >&2
      fail=1
    fi
  done
done

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED — docs drifted from the CLI or contain broken links" >&2
  exit 1
fi
echo "check_docs: docs/cli.md matches 'healers help' and its defaults; all markdown links resolve"
