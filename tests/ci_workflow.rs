//! The CI workflow stays parsable YAML where it is most often edited:
//! its step names.  A step name is free prose, and an unquoted one that
//! holds `: ` or ` #`, or starts with an indicator character, makes the
//! whole file unparsable — every CI step then silently stops running.
//! Every `name:` value must be quoted or a plain scalar YAML accepts.

const WORKFLOW: &str = include_str!("../.github/workflows/ci.yml");

/// Why `value`, the text after `name:`, is not a safe YAML scalar.
fn unsafe_scalar(value: &str) -> Option<&'static str> {
    let value = value.trim();
    if let Some(quote @ ('"' | '\'')) = value.chars().next() {
        let closed = value.len() >= 2 && value.ends_with(quote);
        return (!closed).then_some("a quoted value must close on its line");
    }
    if value.is_empty() {
        return Some("an empty value");
    }
    if value.starts_with([
        '-', '?', ':', ',', '[', ']', '{', '}', '#', '&', '*', '!', '|', '>', '%', '@', '`',
    ]) {
        return Some("a plain value must not start with an indicator character");
    }
    if value.contains(": ") || value.ends_with(':') {
        return Some("`: ` in a plain value starts a mapping");
    }
    if value.contains(" #") {
        return Some("` #` in a plain value starts a comment");
    }
    None
}

/// Every `name:` value of `yaml`, with its line number, that is not a
/// safe scalar.
fn unsafe_names(yaml: &str) -> Vec<(usize, &'static str)> {
    yaml.lines()
        .enumerate()
        .filter_map(|(i, line)| {
            let key = line.trim_start().trim_start_matches("- ");
            let value = key.strip_prefix("name:")?;
            unsafe_scalar(value).map(|why| (i + 1, why))
        })
        .collect()
}

#[test]
fn every_step_name_is_a_safe_yaml_scalar() {
    let names = WORKFLOW
        .lines()
        .filter(|l| l.trim_start().trim_start_matches("- ").starts_with("name:"));
    assert!(
        names.count() > 20,
        "the workflow's step names were not found"
    );
    let bad = unsafe_names(WORKFLOW);
    assert!(bad.is_empty(), ".github/workflows/ci.yml: {bad:?}");
}

#[test]
fn the_check_refuses_what_yaml_refuses() {
    let yaml = "steps:
      - name: one way to indent: no explicit-depth writer API
      - name: a step # with a comment
      - name: *alias
      - name: 'unterminated
      - name: \"one way to indent: quoted\"
      - name: Build (release, offline)
      - name: Check - then publish";
    let bad: Vec<usize> = unsafe_names(yaml)
        .into_iter()
        .map(|(line, _)| line)
        .collect();
    assert_eq!(bad, [2, 3, 4, 5]);
}
