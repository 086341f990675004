#!/usr/bin/env bash
# The repository's design checks, in two halves. Run from the workspace
# root's test target `census` (so every `cargo test` runs it) or by hand:
#
#   bash ci/census.sh
#
# Census: every `pub` fn, struct, enum, trait, type, const or static
# declared in crates/*/src before its file's first `#[cfg(test)]` must be
# named, as a word, by a shipped line outside its own file, or be listed in
# ci/census_allow with its reason. Shipped lines are the test-free part of
# every crates/*/src file (binaries included) and every line under
# examples/ and benchmark/src; a comment line names nothing. The list of
# items without such a caller must equal the allow list, both ways.
#
# Bans: each row of ci/bans is a pattern that must match nothing in its
# paths; the shape checks at the end of this file hold what a row cannot
# say. See DESIGN.md "The census and the bans".
#
# Needs bash, GNU grep, a POSIX awk, sed, sort and comm; takes no
# arguments and reads no environment variables.
set -uo pipefail
cd "$(dirname "$0")/.." || exit 2

failed=0
fail() {
    failed=1
    printf '%s\n' "$@" >&2
}

# ---------------------------------------------------------------- census

census() {
    # One awk pass over every shipped file: record each declaration, and
    # index each word once per file. An item has a caller when its name is
    # a word of some file other than the one it is declared in.
    awk '
        FNR == 1 { cut = 0; f = FILENAME; src = (f ~ /^crates\//) }
        src && /#\[cfg\(test\)\]/ { cut = 1 }
        cut { next }
        src && match($0, /^[ \t]*pub[ \t]+((const|unsafe|async)[ \t]+)?(fn|struct|enum|trait|type|const|static)[ \t]+[A-Za-z_][A-Za-z0-9_]*/) {
            n = split(substr($0, RSTART, RLENGTH), w, /[ \t]+/)
            items++; item_file[items] = f; item_line[items] = FNR; item_name[items] = w[n]
        }
        /^[ \t]*\/\// { next }
        {
            line = $0
            gsub(/[^A-Za-z0-9_]+/, " ", line)
            n = split(line, w, " ")
            for (i = 1; i <= n; i++)
                if (!((w[i], f) in seen)) { seen[w[i], f] = 1; files[w[i]]++ }
        }
        END {
            for (i = 1; i <= items; i++)
                if (files[item_name[i]] == 1)
                    print item_file[i] " " item_name[i] " " item_line[i]
        }' $(find crates/*/src examples benchmark/src -name '*.rs' | sort)
}

hits=$(census | sort -u -k1,1 -k2,2)
allow=$(grep -vE '^[[:space:]]*(#|$)' ci/census_allow)
bare=$(awk 'NF && NF < 3' <<<"$allow")
[ -z "$bare" ] || fail "ci/census_allow: a line needs a path, an item and its reason:" "$bare"
hit_keys=$(awk 'NF { print $1 " " $2 }' <<<"$hits" | sort -u)
allow_keys=$(awk 'NF { print $1 " " $2 }' <<<"$allow" | sort -u)
uncalled=$(comm -23 <(printf '%s\n' "$hit_keys") <(printf '%s\n' "$allow_keys") | grep -v '^$')
if [ -n "$uncalled" ]; then
    fail "census: public items that no shipped line outside their file names; delete each, narrow it to pub(crate) or private, or add an allow line with its reason to ci/census_allow:"
    while read -r path name; do
        fail "  $(awk -v p="$path" -v n="$name" '$1 == p && $2 == n { print p ":" $3 ": " n; exit }' <<<"$hits")"
    done <<<"$uncalled"
fi
stale=$(comm -13 <(printf '%s\n' "$hit_keys") <(printf '%s\n' "$allow_keys") | grep -v '^$')
[ -z "$stale" ] || fail "census: ci/census_allow lists items that are gone or now have a shipped caller; remove their lines:" "$stale"

# ------------------------------------------------------------------ bans

# Runs one row of ci/bans: $1 the section, $2 whole|free, $3 the paths,
# $4 the pattern (a grep -E expression), $5 the PR, $6 why.
ban() {
    local found p
    # $3 stays unquoted on purpose: it is a list of paths and globs.
    for p in $3; do
        [ -e "$p" ] || fail "ci/bans: no such path: $p"
    done
    if [ "$2" = whole ]; then
        found=$(grep -rnHE -- "$4" $3)
    else
        found=$(find $3 -name '*.rs' | sort | while read -r f; do
            sed '/#\[cfg(test)\]/q' "$f" | grep -nE -- "$4" | sed "s|^|$f:|"
        done)
    fi
    [ -z "$found" ] || fail "ban ($1; deleted in $5): $6" "$found"
}

rows=0
section='' pattern='' paths='' part='' pr='' why=''
flush() {
    if [ -n "$pattern" ]; then
        if [ -z "$paths" ] || [ -z "$pr" ] || [ -z "$why" ] || { [ "$part" != whole ] && [ "$part" != free ]; }; then
            fail "ci/bans: the row for '$pattern' needs paths, part (whole or free), pr and why"
        else
            ban "$section" "$part" "$paths" "$pattern" "$pr" "$why"
            rows=$((rows + 1))
        fi
    fi
    pattern='' paths='' part='' pr='' why=''
}
while IFS= read -r line || [ -n "$line" ]; do
    case "$line" in
        '## '*) flush; section=${line#'## '} ;;
        'pattern: '*) flush; pattern=${line#'pattern: '} ;;
        'paths: '*) paths=${line#'paths: '} ;;
        'part: '*) part=${line#'part: '} ;;
        'pr: '*) pr=${line#'pr: '} ;;
        'why: '*) why=${line#'why: '} ;;
        '' | '#'*) ;;
        *) fail "ci/bans: unreadable line: $line" ;;
    esac
done <ci/bans
flush
[ "$rows" -gt 0 ] || fail "ci/bans: no rows read"

# ---------------------------------------------------------- shape checks

# A §6 count is written once: the numbers of PROBING_TABLE, PREFIX_TABLE,
# COMPLIANCE_TABLE and DOMINANT_AS_RESOLVERS appear only inside those
# tables in workload/src/datasets.rs. None of these numbers appears
# otherwise, so the pattern needs no other exclusion. (PR 26)
section6_counts() {
    local tables found
    tables=$(awk '/^pub const (PROBING_TABLE|PREFIX_TABLE|COMPLIANCE_TABLE|DOMINANT_AS_RESOLVERS):/ { s = NR } s && /;$/ { printf "%d-%d ", s, NR; s = 0 }' crates/workload/src/datasets.rs)
    found=$(grep -rnE '\b(3382|3067|1384|387|258|103|4147)\b' crates/{workload,analysis,resolver,conformance,scanner,ecs-study,topology}/src |
        awk -F: -v tables="$tables" '$1 == "crates/workload/src/datasets.rs" { n = split(tables, r, " "); for (i = 1; i <= n; i++) { split(r[i], b, "-"); if ($2 + 0 >= b[1] + 0 && $2 + 0 <= b[2] + 0) next } } { print }')
    [ -z "$found" ] || fail "shape (A §6 count is written once): a §6 count lives in workload's PROBING_TABLE / PREFIX_TABLE / COMPLIANCE_TABLE or DOMINANT_AS_RESOLVERS: name the class, iterate the table; see DESIGN §3 'Where a §6 table lives'" "$found"
}

# A hop decodes what it reads: RelayActor, ScannerNode and EgressActor
# read the datagram through MessageView in on_packet. (PRs 36 and 43)
view_hops() {
    local hops decodes
    hops=$(awk '/^impl Node for (RelayActor|ScannerNode|EgressActor) \{/,/^\}/' crates/resolver/src/actors.rs crates/scanner/src/pipeline.rs)
    decodes=$(grep -n 'Message::from_bytes' <<<"$hops")
    if [ "$(grep -c 'MessageView::parse' <<<"$hops")" != 3 ] || [ -n "$decodes" ]; then
        fail "shape (A hop decodes what it reads): RelayActor, ScannerNode and EgressActor read the datagram through MessageView in on_packet, three MessageView::parse calls and no Message::from_bytes; see DESIGN §11" "$decodes"
    fi
}

# The dnsd pool's Handler takes the view and returns the reply's bytes: it
# exists, and its trait body names no Message. (PR 52)
pool_handler() {
    local handler named
    handler=$(awk '/^pub\(crate\) trait Handler/,/^\}/' crates/dnsd/src/pool.rs)
    named=$(grep -nw 'Message' <<<"$handler")
    if [ -z "$handler" ] || [ -n "$named" ]; then
        fail "shape (A hop decodes what it reads): the dnsd pool's Handler takes the view and returns the reply's bytes; see DESIGN §9" "$named"
    fi
}

# Upstream::query_via takes and returns datagrams in every implementation,
# tests included: no signature of it names Message. (PR 51)
query_via_signatures() {
    local sigs found
    sigs=$(grep -rl 'fn query_via(' crates/*/src | xargs awk '/fn query_via\(/ { on = 1 } on { print FILENAME ":" FNR ": " $0 } on && /[{;][[:space:]]*$/ { on = 0 }')
    found=$(grep 'Message' <<<"$sigs")
    [ -z "$found" ] || fail "shape (One upstream seam, in bytes): Upstream::query_via takes the encoded query and returns the reply's bytes, in every implementation (tests too); Upstream::query is the one Message-level wrapper; see DESIGN §3 (resolver)" "$found"
}

# run_streaming generates each index once, in one worker's slice of the
# chunk: its body neither filters the stream per shard nor builds records
# twice. (PR 27)
run_streaming_body() {
    local found
    found=$(sed -n '/pub fn run_streaming/,/^    }/p' crates/analysis/src/cache_sim.rs | grep -nE 'resolver_of|open_shard|StreamRecord')
    [ -z "$found" ] || fail "shape (A Zipf draw never searches): run_streaming generates each index once, in one worker's slice of the chunk, and packs it straight into its shard's outbox: no shard filters the stream, and the run holds one chunk of packed records shared by its workers, no second copy; see DESIGN §13" "$found"
}

# The Chen et al. row prints once, in amplification. (PR 44)
one_chen_row() {
    if [ "$(grep -rhE '"[^"]*Chen et al' crates/ecs-study/src | wc -l)" -gt 1 ]; then
        fail "shape (A public item has one name): each paper number prints where its figure does, and amplification alone the Chen et al. row; see EXPERIMENTS 'amplification'"
    fi
}

section6_counts
view_hops
pool_handler
query_via_signatures
run_streaming_body
one_chen_row

if [ "$failed" = 0 ]; then
    echo "census: $(wc -l <<<"$allow_keys") allowed items, none uncalled; bans: $rows rows and 6 shape checks, none fired"
fi
exit "$failed"
