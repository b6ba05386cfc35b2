//! Seeded fuzz of the command-line parser (`pv_bench::cli`) over the flag
//! tables of both binaries, in process. Each case is a random argv built
//! from the table's own flags, command names, missing and garbage values,
//! repeated flags and unknown tokens. Whatever the argv, parsing, command
//! selection, the flag check and every typed getter must return rather
//! than panic; a refusal must name the token it refuses; and an argv the
//! parser accepts must parse to the same flags again, both as given and
//! rebuilt from what was parsed.

use accubench::supervise::SupervisionPolicy;
use pv_bench::cli::{Cli, Flags, ACCUBENCH, REPRO};
use pv_rng::{Rng, SeedableRng, StdRng};
use pv_thermal::network::Integrator;

/// Tokens that are not in either table, or are values no getter accepts,
/// or are command names and values in the wrong place.
const NOISE: &[&str] = &[
    "",
    " ",
    "-",
    "--",
    "---",
    "-q",
    "--nosuch",
    "--quick=1",
    "--DEVICE",
    "--batch",
    "0",
    "-1",
    "1",
    "7",
    "2.5",
    "nan",
    "inf",
    "-inf",
    "1e309",
    "18446744073709551616",
    "0x10",
    "é",
    "all",
    "list",
    "table1",
    "sweep",
    "fsck",
    "verify",
    "pixel:0.5",
    "nexus5:9",
    "abort",
    "quarantine",
    "exponential",
    "stratified",
];

/// Every flag of `cli` with what parsing gave it: whether it was given,
/// and its value.
type Parsed<'a> = Vec<(&'static str, bool, Option<&'a str>)>;

fn parsed<'a>(cli: &Cli, flags: &Flags<'a>) -> Parsed<'a> {
    cli.flags
        .iter()
        .map(|f| (f.name, flags.switch(f.name), flags.value(f.name)))
        .collect()
}

/// One random argv: up to 9 tokens, mostly the table's own flags (so
/// repeats and valued flags at the end are common), then noise and random
/// printable strings.
fn argv(cli: &Cli, rng: &mut StdRng) -> Vec<String> {
    let len = rng.gen_range(0..10usize);
    (0..len)
        .map(|_| match rng.gen_range(0..10usize) {
            0..=4 => cli.flags[rng.gen_range(0..cli.flags.len())].name.to_owned(),
            5..=7 => NOISE[rng.gen_range(0..NOISE.len())].to_owned(),
            8 => cli.commands[rng.gen_range(0..cli.commands.len())]
                .0
                .to_owned(),
            _ => (0..rng.gen_range(0..6usize))
                .map(|_| char::from(rng.gen_range(0x20..0x7fu32) as u8))
                .collect(),
        })
        .collect()
}

/// Runs everything a binary does with a parsed command line short of
/// reading files: command selection, the flag check, and each getter on
/// each flag. Only their not panicking is under test.
fn exercise(cli: &Cli, flags: &Flags<'_>, positional: &[&str]) {
    let (command, _operands, stray) = cli.command(positional);
    let _ = flags.check(command, stray);
    for flag in cli.flags {
        let _ = flags.positive_integer(flag.name);
        let _ = flags.count(flag.name);
        let _ = flags.unsigned(flag.name);
        let _ = flags.positive_number(flag.name);
        let _ = flags.choice(flag.name, Integrator::parse);
    }
    let _ = flags.supervision(SupervisionPolicy::default());
}

fn fuzz(cli: &Cli, seed: u64, cases: usize) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut accepted = 0;
    for _ in 0..cases {
        let args = argv(cli, &mut rng);
        let (flags, positional) = match cli.parse(&args) {
            Ok(split) => split,
            Err(reason) => {
                assert!(
                    args.iter()
                        .any(|a| !a.is_empty() && reason.contains(a.as_str())),
                    "{args:?}: refusal {reason:?} names no token"
                );
                continue;
            }
        };
        accepted += 1;
        exercise(cli, &flags, &positional);
        let first = parsed(cli, &flags);

        // The same argv a second time.
        let (again, again_positional) = cli.parse(&args).expect("accepted once");
        assert_eq!(parsed(cli, &again), first, "{args:?}");
        assert_eq!(again_positional, positional, "{args:?}");

        // The argv rebuilt from what was parsed: flags in table order,
        // then the positional arguments.
        let mut rebuilt: Vec<String> = Vec::new();
        for &(name, given, value) in &first {
            if given {
                rebuilt.push(name.to_owned());
                rebuilt.extend(value.map(str::to_owned));
            }
        }
        rebuilt.extend(positional.iter().map(|p| (*p).to_owned()));
        let (round, round_positional) = cli
            .parse(&rebuilt)
            .unwrap_or_else(|e| panic!("{args:?} rebuilt as {rebuilt:?}: {e}"));
        assert_eq!(
            parsed(cli, &round),
            first,
            "{args:?} rebuilt as {rebuilt:?}"
        );
        assert_eq!(round_positional, positional, "{args:?} rebuilt");
    }
    accepted
}

#[test]
fn repro_command_lines_never_panic_and_reparse_the_same() {
    let accepted: usize = (1..=4).map(|seed| fuzz(&REPRO, seed, 5_000)).sum();
    // Enough of the cases get past the parser to exercise the getters.
    assert!(accepted > 2_000, "only {accepted} accepted");
}

#[test]
fn accubench_command_lines_never_panic_and_reparse_the_same() {
    let accepted: usize = (1..=4).map(|seed| fuzz(&ACCUBENCH, seed, 5_000)).sum();
    assert!(accepted > 2_000, "only {accepted} accepted");
}

#[test]
fn usage_texts_name_every_flag() {
    for cli in [&REPRO, &ACCUBENCH] {
        let usage = cli.usage();
        for flag in cli.flags {
            assert!(usage.contains(flag.name), "{}: {}", cli.program, flag.name);
        }
    }
}
