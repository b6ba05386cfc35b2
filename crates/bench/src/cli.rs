//! The command lines of `repro` and `accubench`: one flag table per
//! binary ([`REPRO`], [`ACCUBENCH`]) and one parser over both. The
//! `sweep`/`step` benches build their tables from the same [`switch`] and
//! [`valued`] flags.
//!
//! A table names every flag, whether it takes a value, and the commands
//! that read it; the usage text is generated from it. [`Cli::parse`]
//! refuses a flag that is unknown, repeated or missing its value, and a
//! value never becomes a positional argument. [`Flags::check`] refuses a
//! flag the chosen command does not read and any argument it does not
//! take. The typed getters carry the one wording for a bad value:
//! "`--flag` must be *what*, not *value*".

use accubench::journal::Journal;
use accubench::storage::{FaultyStorage, Storage};
use accubench::supervise::{OnFailure, SupervisionPolicy};
use pv_faults::{FaultKind, FaultPlan, SESSION_KINDS};
use std::sync::Arc;

/// One flag of a command line.
#[derive(Debug)]
pub struct Flag {
    /// The flag as typed, `--` included.
    pub name: &'static str,
    /// The value's placeholder in the usage text; `None` for a switch.
    pub value: Option<&'static str>,
    /// The commands that read the flag.
    pub read_by: &'static [&'static str],
}

/// A binary's command line: its commands and its flags.
#[derive(Debug)]
pub struct Cli {
    /// The binary's name.
    pub program: &'static str,
    /// One usage line per command: the command's name, as [`Flag::read_by`]
    /// gives it, what follows the program name before the flags, and how
    /// many operands it takes.
    pub commands: &'static [(&'static str, &'static str, usize)],
    /// Every flag the binary knows.
    pub flags: &'static [Flag],
}

/// A flag that takes no value, read by the commands `read_by`.
pub const fn switch(name: &'static str, read_by: &'static [&'static str]) -> Flag {
    Flag {
        name,
        value: None,
        read_by,
    }
}

/// A flag whose value the usage text shows as `value`, read by the
/// commands `read_by`.
pub const fn valued(
    name: &'static str,
    value: &'static str,
    read_by: &'static [&'static str],
) -> Flag {
    Flag {
        name,
        value: Some(value),
        read_by,
    }
}

/// `experiments` stands for `all` and every experiment target.
const EXPERIMENTS: &[&str] = &["experiments"];
const SWEEP: &[&str] = &["sweep"];
/// Both the experiments and the sweep.
const BOTH: &[&str] = &["experiments", "sweep"];

/// `repro`'s command line. `list` reads no flag but tolerates all.
pub const REPRO: Cli = Cli {
    program: "repro",
    commands: &[
        ("experiments", "<experiment|all|list>", 1),
        ("sweep", "sweep", 0),
        ("fsck", "fsck <journal>", 1),
        ("verify", "verify <dir>", 1),
    ],
    flags: &[
        switch("--quick", BOTH),
        switch("--json", BOTH),
        valued("--integrator", "euler|rk4|exponential", BOTH),
        valued("--export", "dir", EXPERIMENTS),
        valued("--faults", "plan.toml", EXPERIMENTS),
        switch("--verbose", EXPERIMENTS),
        valued("--devices", "N", SWEEP),
        valued("--seed", "S", SWEEP),
        valued("--journal", "run.journal", SWEEP),
        switch("--resume", SWEEP),
        valued("--threads", "T", SWEEP),
        valued("--max-task-seconds", "W", SWEEP),
        valued("--on-failure", "abort|quarantine", SWEEP),
        valued("--chaos-seed", "S", SWEEP),
        valued("--chaos-panics", "N", SWEEP),
        valued("--chaos-stalls", "N", SWEEP),
        valued("--storage-faults", "plan.toml", SWEEP),
        valued("--storage-escalation", "degrade|abort", SWEEP),
        valued("--sample", "K", SWEEP),
        valued("--sample-strategy", "srs|rss|stratified", SWEEP),
        valued("--sample-seed", "S", SWEEP),
        switch("--oracle", SWEEP),
        switch("--repair", &["fsck"]),
    ],
};

const MEASURE: &[&str] = &["accubench"];

/// `accubench`'s command line: one command, which takes no argument.
pub const ACCUBENCH: Cli = Cli {
    program: "accubench",
    commands: &[("accubench", "--device <model:selector>", 0)],
    flags: &[
        valued("--device", "model:selector", MEASURE),
        valued("--mode", "unconstrained|MHz", MEASURE),
        valued("--iterations", "N", MEASURE),
        valued("--ambient", "°C", MEASURE),
        valued("--scale", "F", MEASURE),
        valued("--integrator", "euler|rk4|exponential", MEASURE),
        valued("--trace", "out.csv", MEASURE),
        valued("--faults", "plan.toml", MEASURE),
        switch("--json", MEASURE),
        valued("--journal", "file", MEASURE),
        switch("--resume", MEASURE),
        valued("--max-task-seconds", "W", MEASURE),
        valued("--on-failure", "abort|quarantine", MEASURE),
        switch("--help", MEASURE),
    ],
};

impl Cli {
    /// The usage text: one line per command, listing the flags it reads
    /// (a flag its synopsis already shows is not repeated).
    pub fn usage(&self) -> String {
        let mut text = String::new();
        for (i, (command, synopsis, _)) in self.commands.iter().enumerate() {
            text += if i == 0 { "usage: " } else { "       " };
            text += self.program;
            text += " ";
            text += synopsis;
            let shown = |flag: &Flag| synopsis.split_whitespace().any(|w| w == flag.name);
            for flag in self.flags.iter().filter(|f| f.read_by.contains(command)) {
                if shown(flag) {
                    continue;
                }
                text += &match flag.value {
                    Some(value) => format!(" [{} {value}]", flag.name),
                    None => format!(" [{}]", flag.name),
                };
            }
            text += "\n";
        }
        text
    }

    /// Splits `args` into flags and positional arguments. `Err` describes
    /// the first `--flag` that is unknown, repeated, or missing its value.
    pub fn parse<'a>(&self, args: &'a [String]) -> Result<(Flags<'a>, Vec<&'a str>), String> {
        let mut given: Vec<(&'static Flag, Option<&'a str>)> = Vec::new();
        let mut positional = Vec::new();
        let mut tokens = args.iter().map(String::as_str);
        while let Some(arg) = tokens.next() {
            if let Some(flag) = self.flags.iter().find(|f| f.name == arg) {
                if given.iter().any(|(f, _)| f.name == arg) {
                    return Err(format!("{arg} given more than once"));
                }
                // A switch consumes no token; a value flag the next one.
                let value = match flag.value.map(|_| tokens.next()) {
                    Some(None) => return Err(format!("{arg} requires a value")),
                    value => value.flatten(),
                };
                given.push((flag, value));
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag {arg}"));
            } else {
                positional.push(arg);
            }
        }
        Ok((Flags { given }, positional))
    }

    /// The command `positional` selects, its operands, and the arguments
    /// left over. A first argument that names a command other than the
    /// first selects it; otherwise the first command takes the arguments.
    pub fn command<'p, 'a>(
        &self,
        positional: &'p [&'a str],
    ) -> (&'static str, &'p [&'a str], &'p [&'a str]) {
        let named = self.commands[1..]
            .iter()
            .find(|c| positional.first() == Some(&c.0));
        let (name, args) = match named {
            Some(command) => (command.0, &positional[1..]),
            None => (self.commands[0].0, positional),
        };
        let (operands, stray) = self.operands(name, args);
        (name, operands, stray)
    }

    /// The operands `command` takes from the front of `args`, and the
    /// arguments left over.
    pub fn operands<'p, 'a>(
        &self,
        command: &str,
        args: &'p [&'a str],
    ) -> (&'p [&'a str], &'p [&'a str]) {
        let takes = self
            .commands
            .iter()
            .find(|c| c.0 == command)
            .map_or(0, |c| c.2);
        args.split_at(takes.min(args.len()))
    }
}

/// A command line split against a [`Cli`] table.
#[derive(Debug)]
pub struct Flags<'a> {
    /// Every flag given, with its value (`None` for a switch).
    given: Vec<(&'static Flag, Option<&'a str>)>,
}

impl<'a> Flags<'a> {
    /// Refuses a flag that `command` does not read, or any of `stray`,
    /// the positional arguments left over once `command` took its own.
    pub fn check(&self, command: &str, stray: &[&str]) -> Result<(), String> {
        if let Some((flag, _)) = self
            .given
            .iter()
            .find(|(f, _)| !f.read_by.contains(&command))
        {
            return Err(format!("{} has no effect on this target", flag.name));
        }
        match stray.first() {
            Some(extra) => Err(format!("unexpected argument {extra}")),
            None => Ok(()),
        }
    }

    /// Whether `flag` was given: a switch, or a flag with its value.
    pub fn switch(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| f.name == flag)
    }

    /// The value given for `flag`.
    pub fn value(&self, flag: &str) -> Option<&'a str> {
        self.given
            .iter()
            .find(|(f, _)| f.name == flag)
            .and_then(|g| g.1)
    }

    /// The value of `flag` read by `parse`, `None` when the flag is
    /// absent. `Err` when `parse` rejects the value: "`flag` must be
    /// `what`, not `value`".
    pub fn get<T>(
        &self,
        flag: &str,
        what: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| parse(v).ok_or_else(|| format!("{flag} must be {what}, not {v:?}")))
            .transpose()
    }

    /// `flag`'s value as an integer ≥ 1.
    pub fn positive_integer(&self, flag: &str) -> Result<Option<usize>, String> {
        self.get(flag, "a positive integer", |v| {
            v.parse().ok().filter(|&n: &usize| n > 0)
        })
    }

    /// `flag`'s value as an integer ≥ 0.
    pub fn count(&self, flag: &str) -> Result<Option<usize>, String> {
        self.get(flag, "a non-negative integer", |v| v.parse().ok())
    }

    /// `flag`'s value as a 64-bit unsigned integer (a seed).
    pub fn unsigned(&self, flag: &str) -> Result<Option<u64>, String> {
        self.get(flag, "an unsigned integer", |v| v.parse().ok())
    }

    /// `flag`'s value as a finite number > 0.
    pub fn positive_number(&self, flag: &str) -> Result<Option<f64>, String> {
        self.get(flag, "a positive number", |v| {
            v.parse().ok().filter(|&x: &f64| x > 0.0 && x.is_finite())
        })
    }

    /// `flag`'s value as one of the names its table placeholder lists.
    pub fn choice<T>(
        &self,
        flag: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let given = self.given.iter().find(|(f, _)| f.name == flag);
        let names = given.and_then(|(f, _)| f.value).unwrap_or_default();
        self.get(flag, &format!("one of {names}"), parse)
    }

    /// The fault plan named by `flag`, with the plan file's text. `Err`
    /// names the first event kind `accepts` refuses, and the flags that
    /// apply that kind: a plan is never partly ignored.
    pub fn fault_plan(
        &self,
        flag: &str,
        accepts: impl Fn(FaultKind) -> bool,
    ) -> Result<Option<(FaultPlan, String)>, String> {
        let Some(path) = self.value(flag) else {
            return Ok(None);
        };
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{flag}: could not read {path}: {e}"))?;
        let plan = FaultPlan::from_toml_str(&text).map_err(|e| format!("{flag}: {path}: {e}"))?;
        if let Some(kind) = plan.events.iter().map(|e| e.kind).find(|&k| !accepts(k)) {
            let applied_by = if kind.is_storage() {
                "storage kinds are applied by `repro sweep --storage-faults` \
                 and by `accubench --faults` with `--journal`"
            } else if SESSION_KINDS.contains(&kind) {
                "session kinds are applied by `accubench --faults`; \
                 a sweep draws them with `--chaos-panics`/`--chaos-stalls`"
            } else {
                "instrument kinds are applied by `repro <experiment> --faults` \
                 and by `accubench --faults`; a sweep draws them with `--seed`"
            };
            return Err(format!(
                "{flag}: {path}: `{kind}` is not applied here; {applied_by}"
            ));
        }
        Ok(Some((plan, text)))
    }

    /// `default` with `--max-task-seconds` and `--on-failure` applied.
    pub fn supervision(&self, default: SupervisionPolicy) -> Result<SupervisionPolicy, String> {
        let mut policy = default;
        if let Some(wall) = self.positive_number("--max-task-seconds")? {
            policy.max_wall_seconds = Some(wall);
        }
        if let Some(on_failure) = self.choice("--on-failure", OnFailure::parse)? {
            policy.on_failure = on_failure;
        }
        Ok(policy)
    }
}

/// The error for a write to stdout that failed, as when the reader of a
/// pipe has gone.
pub fn write_failed(e: std::io::Error) -> String {
    format!("could not write to stdout: {e}")
}

/// Opens the run journal at `path`, on a filesystem that `faults` (the
/// plan's storage events) injects faults into when given, noting on
/// stderr any torn tail it dropped. A journal that already holds records
/// is refused unless `resume`.
pub fn open_journal(
    path: &str,
    faults: Option<&FaultPlan>,
    resume: bool,
) -> Result<Journal, String> {
    let storage = match faults {
        Some(plan) => Storage::new(Arc::new(FaultyStorage::new(Storage::os(), plan))),
        None => Storage::os(),
    };
    let journal =
        Journal::open_with(storage, path).map_err(|e| format!("--journal: {path}: {e}"))?;
    if journal.dropped_bytes() > 0 {
        eprintln!(
            "journal {path}: dropped {} byte(s) of torn tail",
            journal.dropped_bytes()
        );
    }
    if !journal.recovered().is_empty() && !resume {
        return Err(format!(
            "journal {path} already holds {} record(s); \
             pass --resume to continue it or choose a fresh path",
            journal.recovered().len()
        ));
    }
    Ok(journal)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Why `cli` refuses the whitespace-split `line`; empty if it does not.
    fn refusal(cli: &Cli, line: &str) -> String {
        let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        let check = |(flags, positional): (Flags, Vec<&str>)| {
            let (command, _, stray) = cli.command(&positional);
            flags.check(command, stray)
        };
        cli.parse(&args).and_then(check).err().unwrap_or_default()
    }

    #[test]
    fn both_tables_refuse_what_they_do_not_know() {
        // Each line, then what its refusal must say ("" = accepted; a
        // value is never a positional argument).
        let repro = [
            ["sweep --batch 8", "unknown flag --batch"],
            [
                "sweep --devices 4 --devices 9",
                "--devices given more than once",
            ],
            ["sweep --seed", "--seed requires a value"],
            ["table1 --journal x", "--journal has no effect"],
            ["fsck j --quick", "--quick has no effect"],
            ["table1 fig3", "unexpected argument fig3"],
            ["fsck j k", "unexpected argument k"],
            ["sweep --threads 2 --json", ""],
            ["fsck j --repair", ""],
        ];
        let accubench = [
            ["--device nexus5:2 --threads 2", "unknown flag --threads"],
            [
                "--device nexus5:2 --device pixel:0.5",
                "--device given more than once",
            ],
            ["--device nexus5:2 --ambient", "--ambient requires a value"],
            ["--device nexus5:2 extra", "unexpected argument extra"],
            ["--device nexus5:2 --mode 998 --json", ""],
        ];
        let cases = repro.iter().map(|c| (&REPRO, c));
        for (cli, [line, reason]) in cases.chain(accubench.iter().map(|c| (&ACCUBENCH, c))) {
            let refused = refusal(cli, line);
            assert_eq!(refused.is_empty(), reason.is_empty(), "{line}: {refused}");
            assert!(refused.contains(reason), "{line}: {refused}");
        }
    }

    #[test]
    fn getters_name_the_flag_and_what_it_must_be() {
        let line = "sweep --devices 0 --max-task-seconds nan --integrator rk5 --seed 7";
        let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        let (flags, _) = REPRO.parse(&args).unwrap();
        let devices = flags.positive_integer("--devices").unwrap_err();
        assert_eq!(devices, "--devices must be a positive integer, not \"0\"");
        assert!(flags.positive_number("--max-task-seconds").is_err());
        let integrator = flags.choice("--integrator", pv_thermal::network::Integrator::parse);
        let expected = "--integrator must be one of euler|rk4|exponential, not \"rk5\"";
        assert_eq!(integrator.unwrap_err(), expected);
        assert_eq!(flags.unsigned("--seed"), Ok(Some(7)));
        assert_eq!(flags.unsigned("--absent"), Ok(None));
    }

    #[test]
    fn usage_lists_each_commands_flags_once() {
        let usage = ACCUBENCH.usage();
        assert!(usage.starts_with("usage: accubench --device <model:selector> [--mode "));
        assert_eq!(usage.matches("--device").count(), 1, "{usage}");
        let fsck = REPRO.usage().lines().nth(2).map(str::to_owned);
        assert_eq!(
            fsck.as_deref(),
            Some("       repro fsck <journal> [--repair]")
        );
    }
}
