//! The measured blocks of EXPERIMENTS.md and README.md are copies of
//! `turbulence` output.
//!
//! A fence is a `<!-- turbulence ARGS -->` line directly before a
//! ```` ```text ```` block. Each distinct ARGS runs once, whichever file
//! its blocks are in, and every line of each of its blocks must appear,
//! verbatim and contiguous, in that command's stdout. A failure names
//! the command and the file and line of the first block line it did not
//! print.

use std::collections::BTreeMap;
use std::process::Command;

const DOCS: [(&str, &str); 2] = [
    ("EXPERIMENTS.md", include_str!("../../../EXPERIMENTS.md")),
    ("README.md", include_str!("../../../README.md")),
];

/// A fenced block: its file, its first line's number there, and its
/// lines.
struct Block {
    file: &'static str,
    line: usize,
    lines: Vec<&'static str>,
}

/// Add every fenced block of `doc` (named `file`) to `fences`, under
/// the ARGS of its marker; returns how many there were.
fn fences(
    fences: &mut BTreeMap<&'static str, Vec<Block>>,
    file: &'static str,
    doc: &'static str,
) -> usize {
    let mut found = 0;
    let mut lines = doc.lines().enumerate();
    while let Some((i, line)) = lines.next() {
        let Some(args) = line
            .strip_prefix("<!-- turbulence ")
            .and_then(|rest| rest.strip_suffix(" -->"))
        else {
            continue;
        };
        assert_eq!(
            lines.next().map(|(_, l)| l),
            Some("```text"),
            "{file}:{}: the marker must sit directly before a ```text block",
            i + 1
        );
        let block: Vec<&str> = lines
            .by_ref()
            .map(|(_, l)| l)
            .take_while(|l| *l != "```")
            .collect();
        assert!(!block.is_empty(), "{file}:{}: empty block", i + 1);
        fences.entry(args).or_default().push(Block {
            file,
            line: i + 3,
            lines: block,
        });
        found += 1;
    }
    found
}

fn run(args: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_turbulence"))
        .args(args.split_whitespace())
        .output()
        .expect("run turbulence");
    assert!(
        output.status.success(),
        "`turbulence {args}` failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("stdout is UTF-8")
}

/// `None` when `block` appears contiguously in `stdout`; otherwise the
/// index of the first block line not found after the longest matching
/// prefix.
fn first_missing(block: &[&str], stdout: &[&str]) -> Option<usize> {
    let mut best = 0;
    for start in 0..stdout.len() {
        let matched = block
            .iter()
            .zip(&stdout[start..])
            .take_while(|(want, got)| want == got)
            .count();
        if matched == block.len() {
            return None;
        }
        best = best.max(matched);
    }
    Some(best)
}

#[test]
fn every_fenced_block_is_what_its_command_prints() {
    let mut all = BTreeMap::new();
    for (file, doc) in DOCS {
        assert!(
            fences(&mut all, file, doc) > 0,
            "{file} has no fenced blocks"
        );
    }

    for (args, blocks) in &all {
        let stdout = run(args);
        let stdout: Vec<&str> = stdout.lines().collect();
        for block in blocks {
            if let Some(i) = first_missing(&block.lines, &stdout) {
                panic!(
                    "`turbulence {args}` does not print {}:{}: {:?}",
                    block.file,
                    block.line + i,
                    block.lines[i]
                );
            }
        }
    }
}

#[test]
fn a_changed_digit_is_caught_and_named() {
    let stdout = ["head", "  rate 42.0", "tail"];
    assert_eq!(first_missing(&["  rate 42.0", "tail"], &stdout), None);
    assert_eq!(first_missing(&["head", "  rate 43.0"], &stdout), Some(1));
    assert_eq!(first_missing(&["head", "tail"], &stdout), Some(1));
    assert_eq!(first_missing(&["absent"], &stdout), Some(0));
}
