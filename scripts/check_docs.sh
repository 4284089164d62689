#!/usr/bin/env bash
# Verifies that the documentation points at things that exist. Step 1-2:
# every binary a documentation code block tells the reader to run
# corresponds to a real CMake target. Scans fenced code blocks in
# README.md and docs/*.md for invocations shaped like
#   ./build/examples/<name>   build/tests/<name>   build-tsan/bench/<name>
# and checks each <name> against the targets declared via
# add_executable / s2r_add_test / s2r_add_bench / s2r_add_example.
# Steps 3-8 check metric names, the protocol message-type table, the
# architecture module map, the code names and config fields the docs
# cite, the flags they show after bench and example binaries, and every
# backticked snake_case name (see each step).
#
# Wired as the `check_docs` ctest (tests/CMakeLists.txt), so stale docs
# fail CI the same way a broken test does.
#
# Usage: check_docs.sh [repo_root]
set -u

ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$ROOT" || exit 2

# --- 1. Collect declared executable target names. ----------------------
targets_file="$(mktemp)"
trap 'rm -f "$targets_file"' EXIT

find "$ROOT" -name CMakeLists.txt -not -path '*/build*' -print0 |
  xargs -0 sed -n \
    -e 's/^[[:space:]]*add_executable(\([A-Za-z0-9_-]*\).*/\1/p' \
    -e 's/^[[:space:]]*s2r_add_test(\([A-Za-z0-9_-]*\).*/\1/p' \
    -e 's/^[[:space:]]*s2r_add_bench(\([A-Za-z0-9_-]*\).*/\1/p' \
    -e 's/^[[:space:]]*s2r_add_example(\([A-Za-z0-9_-]*\).*/\1/p' \
  | sort -u > "$targets_file"

if ! [ -s "$targets_file" ]; then
  echo "check_docs: found no CMake targets under $ROOT" >&2
  exit 2
fi

# --- 2. Scan fenced code blocks for build/<dir>/<binary> mentions. -----
docs=(README.md)
for f in docs/*.md; do
  [ -e "$f" ] && docs+=("$f")
done

fail=0
for doc in "${docs[@]}"; do
  [ -e "$doc" ] || continue
  # Keep only lines inside ``` fences, then pull out binary names.
  mentions=$(awk '/^```/ { fence = !fence; next } fence { print }' "$doc" |
    grep -oE '(\./)?build[A-Za-z0-9_-]*/(examples|bench|tests)/[A-Za-z0-9_-]+' |
    sed 's|.*/||' | sort -u)
  for name in $mentions; do
    if ! grep -qx "$name" "$targets_file"; then
      echo "check_docs: $doc mentions binary '$name' with no CMake target" >&2
      fail=1
    fi
  done
done

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED — docs reference binaries that do not exist" >&2
  exit 1
fi

# --- 3. Metric names the docs cite must exist in source. ---------------
# OPERATIONS.md, ARCHITECTURE.md, DESIGN.md and the README document
# registry metrics as backticked dotted names (`serve.latency_us`,
# `core.pool.batches`, ...). A name counts as a metric when its first
# part names a directory under src/ or is one of the non-directory
# prefixes below. Each one must appear as a string literal somewhere
# under src/ — otherwise the doc points an operator at a series that
# will never be emitted.
metric_prefixes=$( { find src -mindepth 1 -maxdepth 1 -type d |
    sed 's|^src/||'; printf '%s\n' ppo train rollout router; } |
  sort -u | paste -sd '|')
for doc in docs/OPERATIONS.md docs/ARCHITECTURE.md DESIGN.md README.md; do
  [ -e "$doc" ] || continue
  metric_names=$(grep -oE "\`($metric_prefixes)\.[a-z0-9_.]+\`" \
      "$doc" | tr -d '`' | sort -u)
  for name in $metric_names; do
    if ! grep -rqF "\"$name\"" src/; then
      echo "check_docs: $doc documents metric '$name' not found in src/" >&2
      fail=1
    fi
  done
done
if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED — documented metric names missing from source" >&2
  exit 1
fi

# --- 4. PROTOCOL.md message-type table must match the wire.h enum. ----
# The protocol doc's "Message types" table rows look like
#   | 1 | `kActRequest` | ... |
# and the executable counterpart is the MessageType enum in
# src/transport/wire.h (`kActRequest = 1,`). Both directions are
# checked: a documented type that is not in the enum, or an enum value
# the doc forgot, fails — so the byte-level reference can never drift
# from the codec.
if [ -e docs/PROTOCOL.md ] && [ -e src/transport/wire.h ]; then
  doc_types=$(awk '/^## Message types/{sec=1; next} /^## /{sec=0} sec' \
      docs/PROTOCOL.md |
    grep -oE '^\| *[0-9]+ *\| *`k[A-Za-z]+`' |
    sed 's/[|`]//g' | awk '{print $1 " " $2}' | sort -u)
  enum_types=$(awk '/^enum class MessageType/,/^\};/' src/transport/wire.h |
    grep -oE 'k[A-Za-z]+ = [0-9]+' | awk '{print $3 " " $1}' | sort -u)
  if [ -z "$doc_types" ] || [ -z "$enum_types" ]; then
    echo "check_docs: could not extract message types (doc table or enum moved?)" >&2
    fail=1
  elif [ "$doc_types" != "$enum_types" ]; then
    echo "check_docs: PROTOCOL.md message-type table disagrees with wire.h MessageType enum" >&2
    echo "--- documented (docs/PROTOCOL.md):" >&2
    echo "$doc_types" >&2
    echo "--- declared (src/transport/wire.h):" >&2
    echo "$enum_types" >&2
    fail=1
  fi
  if [ "$fail" -ne 0 ]; then
    echo "check_docs: FAILED — protocol doc out of sync with the wire enum" >&2
    exit 1
  fi
fi

# --- 5. ARCHITECTURE.md module map must match the src/ tree. -----------
# The module-map table keys its rows as | `src/<dir>` | ... |. Both
# directions are checked: a row naming a directory that does not exist,
# or a src/ subdirectory the table forgot, fails — so the system map
# can never silently drift from the layout.
if [ -e docs/ARCHITECTURE.md ]; then
  doc_dirs=$(grep -oE '^\| *`src/[a-z_]+`' docs/ARCHITECTURE.md |
    sed 's/[|`[:space:]]//g; s|^src/||' | sort -u)
  src_dirs=$(find src -mindepth 1 -maxdepth 1 -type d |
    sed 's|^src/||' | sort -u)
  if [ -z "$doc_dirs" ]; then
    echo "check_docs: ARCHITECTURE.md module-map rows not found (table moved?)" >&2
    fail=1
  elif [ "$doc_dirs" != "$src_dirs" ]; then
    echo "check_docs: ARCHITECTURE.md module map disagrees with the src/ tree" >&2
    echo "--- documented (docs/ARCHITECTURE.md):" >&2
    echo "$doc_dirs" >&2
    echo "--- on disk (src/*/):" >&2
    echo "$src_dirs" >&2
    fail=1
  fi
  if [ "$fail" -ne 0 ]; then
    echo "check_docs: FAILED — architecture module map out of sync with src/" >&2
    exit 1
  fi
fi
# --- 6. Code names the docs cite must exist in source. -----------------
# Backticked `ns::Name` (e.g. `serve::LoadCheckpointEx`,
# `infer::InferencePlan::Freeze`) and `kName` (`kVersionUnsupported`)
# spans in the README, DESIGN.md and docs/*.md point a reader at code,
# and so do their fenced code blocks: every qualified ns::Name outside
# std:: and every assigned config field (`.name =`). Every name after
# the namespace, and every field, must appear as a word somewhere under
# src/ — otherwise the doc describes a type, function, status or option
# that was renamed or deleted.
check_word() {  # doc, cited text, word
  if ! grep -rqw -- "$3" src/; then
    echo "check_docs: $1 cites '$2' but '$3' is not in src/" >&2
    fail=1
  fi
}
for doc in "${docs[@]}" DESIGN.md; do
  [ -e "$doc" ] || continue
  code_names=$( {
      grep -oE '`[a-z_]+(::[A-Za-z_][A-Za-z0-9_]*)+|`k[A-Z][A-Za-z0-9_]*`' \
        "$doc" | tr -d '`'
      awk '/^```/ { fence = !fence; next } fence { print }' "$doc" |
        grep -oE '[a-z_]+(::[A-Za-z_][A-Za-z0-9_]*)+' | grep -v '^std::'
    } | sort -u)
  for code_name in $code_names; do
    for word in $(echo "${code_name#*::}" | sed 's/::/ /g'); do
      check_word "$doc" "$code_name" "$word"
    done
  done
  fields=$(awk '/^```/ { fence = !fence; next } fence { print }' "$doc" |
    grep -oE '\.[a-z_][a-z0-9_]* *=([^=]|$)' |
    sed -E 's/^\.([a-z0-9_]+).*/\1/' | sort -u)
  for field in $fields; do
    check_word "$doc" ".$field =" "$field"
  done
done
if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED — documented code names missing from source" >&2
  exit 1
fi

# --- 7. Flags the docs show after bench and example binaries. ----------
# A fenced invocation (`./build/bench/<name> --smoke ...`, up to a `#`
# comment or a shell separator) or a backticked `<name> --flag` span in
# the README or docs/*.md tells the reader the binary takes that flag.
# Each such flag must appear as the string literal "--flag" in
# bench/<name>.cc or examples/<name>.cpp: the flag helpers ignore flags
# nobody asks for, so a stale one would silently run the default mode.
flag_mentions() {  # doc -> lines "name rest-of-command"
  awk '/^```/ { fence = !fence; next } fence { print }' "$1" |
    sed -nE 's@.*build[A-Za-z0-9_-]*/(bench|examples)/([A-Za-z0-9_]+)([^#&|;]*).*@\2\3@p'
  grep -oE '`[a-z][a-z0-9_]* --[^`]*`' "$1" | tr -d '`'
}
for doc in "${docs[@]}"; do
  while read -r name rest; do
    source_file=""
    for f in "bench/$name.cc" "examples/$name.cpp"; do
      [ -e "$f" ] && source_file="$f"
    done
    [ -n "$source_file" ] || continue
    for flag in $(echo "$rest" | grep -oE -- '--[A-Za-z0-9][A-Za-z0-9_-]*'); do
      if ! grep -qF -- "\"$flag\"" "$source_file"; then
        echo "check_docs: $doc shows '$name $flag' but \"$flag\" is not in $source_file" >&2
        fail=1
      fi
    done
  done < <(flag_mentions "$doc")
done
if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED — docs show flags their binaries do not parse" >&2
  exit 1
fi
# --- 8. Backticked snake_case names the docs cite must exist. ---------
# A backticked span that is exactly one snake_case name points at a
# config field, function, metric or script. Step 6 sees only ns::Name,
# kName and fenced `.field =`, so a bare field or a deleted function in
# prose would pass it. Each name must be a word somewhere in src/,
# bench/, examples/, tests/, scripts/ or the root CMakeLists.txt, or
# the Prometheus form of a dotted string literal in src/ (the metric
# name with its dots turned into underscores, as /metrics prints it).
# Name no example here: this file is in scripts/, so any name it
# mentions would always pass.
words_file="$(mktemp)"
trap 'rm -f "$targets_file" "$words_file"' EXIT
{
  grep -rhoE '[A-Za-z0-9_]+' src bench examples tests scripts CMakeLists.txt
  grep -rhoE '"[a-z][a-z0-9_]*(\.[a-z0-9_]+)+"' src | tr -d '"' | tr '.' '_'
} | LC_ALL=C sort -u > "$words_file"
for doc in README.md DESIGN.md docs/*.md; do
  [ -e "$doc" ] || continue
  for name in $(grep -oE '`[a-z][a-z0-9]*(_[a-z0-9]+)+`' "$doc" | tr -d '`' |
      LC_ALL=C sort -u | LC_ALL=C comm -23 - "$words_file"); do
    echo "check_docs: $doc cites '$name', which is no word in the code and no metric's Prometheus name" >&2
    fail=1
  done
done
if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED — docs cite snake_case names missing from the code" >&2
  exit 1
fi
echo "check_docs: OK (binaries, metric names, message types, module map, code names, binary flags and snake_case names all check out)"
