//! Declarative experiment specifications and deterministic seed derivation.
//!
//! An [`ExperimentSpec`] names a grid as an ordered list of **named axes**
//! ([`Axis`]): each axis has a name and a list of values (strings or
//! bit-exact floats), and the grid is their cartesian product. The three
//! paper figures' canonical `network × algo × T` shape is just the
//! three-axis special case ([`ExperimentSpec::three_axis`]); irregular
//! grids (Figure 9's Sybil-fraction axis, a good-fraction sweep) declare
//! their own axes instead of smuggling extra dimensions through free-form
//! id strings.
//!
//! The spec serializes to a small versioned text format (see
//! [`ExperimentSpec::to_text`]) so a results store can record exactly
//! which grid produced it, and resumed runs can verify they are continuing
//! the *same* experiment. The text is written for provenance
//! (`<name>.spec` next to the store) and hashed into the store
//! fingerprint; nothing reads it back, so there is no parser.
//!
//! # Cell identity
//!
//! Every cell renders a canonical id: `name=value` pairs in axis order,
//! joined by `/`, with every structural character inside a name or value
//! percent-escaped ([`escape_component`]). The escaping is injective, so
//! two distinct axis assignments can never collide in a results store —
//! the aliasing bug class where `"1/2"` and `"1of2"` mapped to the same
//! key (via a lossy `replace`) is impossible by construction.
//!
//! # Seed derivation
//!
//! Every cell's randomness is a pure function of the spec's `seed`:
//!
//! * workload seed for trial `i` = [`trial_seed`]`(seed, i)` — shared by
//!   **all** cells of the grid, so every cell of a trial replays the same
//!   good-ID schedule and the workload cache services the whole grid row
//!   from one file;
//! * defense seed = [`defense_seed`]`(workload seed)` — a distinct stream
//!   so classifier-gated defenses never share draws with trace generation;
//! * for drivers that need per-cell streams, [`cell_seed`]
//!   keys a seed on the canonical cell id (so it inherits the id's
//!   no-collision guarantee).
//!
//! All derivations are order-free (SplitMix64 finalizer / SHA-256), so
//! results are identical regardless of worker count or cell scheduling.
//! The grid-wide `workload_seed`/`defense_seed` derivation is frozen:
//! the tests pin its values.

/// Format tag on the first line of a serialized spec.
pub const SPEC_MAGIC: &str = "sybil-exp-spec";
/// Current spec format version (named axes).
pub const SPEC_VERSION: u32 = 2;

/// Canonical axis name for churn-network labels.
pub const AXIS_NETWORK: &str = "network";
/// Canonical axis name for algorithm labels.
pub const AXIS_ALGO: &str = "algo";
/// Canonical axis name for adversary spend rates.
pub const AXIS_T: &str = "T";
/// Canonical axis name for adversary strategy labels.
///
/// Values on this axis are registry names (`budget`, `burst`,
/// `churn-force`, `purge-survive`, …) that the experiment driver resolves
/// back to adversary constructors — see `sybil_sim::adversary`'s strategy
/// registry. This crate treats them as opaque labels like any other axis
/// value.
pub const AXIS_STRATEGY: &str = "strategy";

/// One value of an axis: a driver-resolved label or a bit-exact float.
///
/// Floats are carried and compared by bit pattern wherever identity
/// matters (cell ids, the spec text), so two representable floats can
/// never alias. An axis holds values of one kind only (see
/// [`ExperimentSpec::validate`]).
#[derive(Clone, Debug, PartialEq)]
pub enum AxisValue {
    /// A string label, resolved by the experiment driver.
    Str(String),
    /// A float swept directly (spend rates, durations, fractions).
    F64(f64),
}

impl AxisValue {
    /// Canonical rendering used in cell ids and the v2 text format:
    /// strings are percent-escaped, floats go through [`fmt_f64_exact`].
    ///
    /// Injective across *both* kinds: a string that would render exactly
    /// like a float rendering (`"1024"`, `"-3"`, `"0x…"` bit patterns)
    /// has its first character force-escaped — digits and `-` are never
    /// escaped otherwise and float renderings never contain `%`, so the
    /// two kinds' renderings are disjoint. A driver that changes a
    /// value's kind across releases therefore changes its cell id and
    /// can never silently resume the other kind's record.
    pub fn render(&self) -> String {
        match self {
            AxisValue::Str(s) => {
                let esc = escape_component(s);
                if looks_like_float_rendering(&esc) {
                    let first = esc.as_bytes()[0];
                    format!("%{first:02x}{}", &esc[1..])
                } else {
                    esc
                }
            }
            AxisValue::F64(x) => fmt_f64_exact(*x),
        }
    }

    /// The string label, if this is a [`AxisValue::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AxisValue::Str(s) => Some(s),
            AxisValue::F64(_) => None,
        }
    }

    /// The float, if this is a [`AxisValue::F64`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AxisValue::F64(x) => Some(*x),
            AxisValue::Str(_) => None,
        }
    }
}

/// One named axis of an experiment grid.
#[derive(Clone, Debug, PartialEq)]
pub struct Axis {
    /// Axis name (unique within a spec; arbitrary text — it is escaped
    /// wherever it meets a structural format).
    pub name: String,
    /// The swept values, in sweep order. All of one kind.
    pub values: Vec<AxisValue>,
}

impl Axis {
    /// A string-valued axis.
    pub fn strs<N: Into<String>, S: Into<String>>(
        name: N,
        values: impl IntoIterator<Item = S>,
    ) -> Axis {
        Axis {
            name: name.into(),
            values: values.into_iter().map(|s| AxisValue::Str(s.into())).collect(),
        }
    }

    /// A float-valued axis.
    pub fn floats<N: Into<String>>(name: N, values: impl IntoIterator<Item = f64>) -> Axis {
        Axis { name: name.into(), values: values.into_iter().map(AxisValue::F64).collect() }
    }
}

/// A declarative experiment grid: the cartesian product of named axes.
///
/// Axis values are *labels* as far as this crate is concerned: the
/// experiment driver that owns the spec maps them back to concrete churn
/// models, defense constructors, fractions, and so on. Keeping the spec
/// string-typed keeps this crate independent of any particular roster.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentSpec {
    /// Experiment name (also names the results store / CSV artifacts).
    pub name: String,
    /// The grid's axes, in enumeration order (first axis outermost).
    pub axes: Vec<Axis>,
    /// Independent trials per cell (distinct workload seeds).
    pub trials: u32,
    /// Simulated seconds per run.
    pub horizon: f64,
    /// Adversary power fraction κ.
    pub kappa: f64,
    /// Base seed; all cell randomness derives from it.
    pub seed: u64,
}

/// One cell of a spec's grid: an ordered assignment of one value per axis.
#[derive(Clone, Debug, PartialEq)]
pub struct CellSpec {
    /// `(axis name, value)` pairs in the spec's axis order.
    pub assignment: Vec<(String, AxisValue)>,
}

impl CellSpec {
    /// Builds a cell from an explicit assignment. Useful for experiments
    /// whose cells are not a full cartesian product (e.g. the ablation
    /// knob list) but still want canonical, collision-free ids.
    pub fn new(assignment: Vec<(String, AxisValue)>) -> CellSpec {
        CellSpec { assignment }
    }

    /// The value assigned to `axis`, if present.
    pub fn value(&self, axis: &str) -> Option<&AxisValue> {
        self.assignment.iter().find(|(name, _)| name == axis).map(|(_, v)| v)
    }

    /// The string label assigned to `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the axis is absent or float-valued — a driver/spec
    /// mismatch, not a runtime condition.
    pub fn str_value(&self, axis: &str) -> &str {
        self.value(axis)
            .and_then(AxisValue::as_str)
            .unwrap_or_else(|| panic!("cell {} has no string axis {axis:?}", self.id()))
    }

    /// The float assigned to `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the axis is absent or string-valued.
    pub fn f64_value(&self, axis: &str) -> f64 {
        self.value(axis)
            .and_then(AxisValue::as_f64)
            .unwrap_or_else(|| panic!("cell {} has no float axis {axis:?}", self.id()))
    }

    /// Stable identifier used as the results-store key: escaped
    /// `name=value` pairs in axis order, joined by `/`.
    ///
    /// Injective: `/`, `=`, and every other structural character inside a
    /// name or value is percent-escaped, floats render bit-exactly, and
    /// string renderings are kept disjoint from float renderings (see
    /// [`AxisValue::render`]), so two distinct assignments — even ones
    /// differing only in value *kind* — always produce distinct ids.
    pub fn id(&self) -> String {
        self.assignment
            .iter()
            .map(|(name, value)| format!("{}={}", escape_component(name), value.render()))
            .collect::<Vec<_>>()
            .join("/")
    }
}

/// Bit-exact float rendering shared by cell ids and the spec text format:
/// exactly-integral values print as plain integers (readable), everything
/// else as a `0x`-prefixed bit pattern — two representable floats can
/// never alias.
///
/// Negative zero compares equal to `0` and truncates to integer `0`, but
/// its bit pattern differs: it takes the bit-pattern form so the two
/// representable zeros never alias.
pub fn fmt_f64_exact(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 && !(x == 0.0 && x.is_sign_negative()) {
        format!("{}", x as i64)
    } else {
        format!("0x{:016x}", x.to_bits())
    }
}

/// The float a cell id assigns to the `T` axis ([`AXIS_T`]), read back
/// from its canonical `name=value` form ([`CellSpec::id`]); `None` when
/// the id has no `T` component or a string-valued one. Float renderings
/// are never escaped and string renderings never look like one (see
/// [`AxisValue::render`]), so this inverts [`fmt_f64_exact`] exactly.
pub(crate) fn id_t(id: &str) -> Option<f64> {
    let value = id.split('/').find_map(|pair| pair.strip_prefix(AXIS_T)?.strip_prefix('='))?;
    match value.strip_prefix("0x") {
        Some(bits) => u64::from_str_radix(bits, 16).ok().map(f64::from_bits),
        None => value.parse::<i64>().ok().map(|x| x as f64),
    }
}

/// True iff `s` has the exact shape of a [`fmt_f64_exact`] output: an
/// optionally-negative decimal integer, or `0x` + 16 hex digits. Used by
/// [`AxisValue::render`] to keep string and float renderings disjoint.
fn looks_like_float_rendering(s: &str) -> bool {
    if let Some(hex) = s.strip_prefix("0x") {
        return hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit());
    }
    let digits = s.strip_prefix('-').unwrap_or(s);
    !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit())
}

/// Percent-escapes every character with structural meaning in cell ids or
/// the spec text format: `%` itself, the separators `/`, `=`, `,`, `:`,
/// and all whitespace/control characters (results-store keys must be
/// whitespace-free).
///
/// Injective: a reserved character only ever appears in the output as the
/// escape introducer `%`, and `%` is itself always escaped, so distinct
/// inputs cannot produce equal outputs.
pub fn escape_component(s: &str) -> String {
    let reserved =
        |c: char| matches!(c, '%' | '/' | '=' | ',' | ':') || c.is_whitespace() || c.is_control();
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if reserved(c) {
            let mut buf = [0u8; 4];
            for b in c.encode_utf8(&mut buf).bytes() {
                out.push('%');
                out.push_str(&format!("{b:02x}"));
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Inverts [`escape_component`]. Nothing ships that reads escaped text
/// back; this survives only as the injectivity oracle of the tests below
/// (an escaping with an inverse cannot map two inputs to one output).
#[cfg(test)]
fn unescape_component(s: &str) -> Result<String, String> {
    let mut bytes = Vec::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '%' {
            let hi = chars.next().ok_or_else(|| format!("truncated escape in {s:?}"))?;
            let lo = chars.next().ok_or_else(|| format!("truncated escape in {s:?}"))?;
            let byte = u8::from_str_radix(&format!("{hi}{lo}"), 16)
                .map_err(|e| format!("bad escape %{hi}{lo} in {s:?}: {e}"))?;
            bytes.push(byte);
        } else {
            let mut buf = [0u8; 4];
            bytes.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
        }
    }
    String::from_utf8(bytes).map_err(|e| format!("escaped text {s:?} is not UTF-8: {e}"))
}

impl ExperimentSpec {
    /// The canonical three-axis (`network × algo × T`) grid every spend
    /// sweep uses.
    #[allow(clippy::too_many_arguments)]
    pub fn three_axis(
        name: impl Into<String>,
        networks: Vec<String>,
        algos: Vec<String>,
        t_grid: Vec<f64>,
        trials: u32,
        horizon: f64,
        kappa: f64,
        seed: u64,
    ) -> ExperimentSpec {
        ExperimentSpec {
            name: name.into(),
            axes: vec![
                Axis::strs(AXIS_NETWORK, networks),
                Axis::strs(AXIS_ALGO, algos),
                Axis::floats(AXIS_T, t_grid),
            ],
            trials,
            horizon,
            kappa,
            seed,
        }
    }

    /// Checks the spec is runnable: a non-empty grid of uniquely-named
    /// axes, each axis single-kind with distinct values, positive horizon
    /// and trial count, and κ in `[0, 1)`.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("spec name is empty".into());
        }
        if self.name.chars().any(|c| c == ',' || c == '\n' || c == '=' || c == '/') {
            return Err(format!(
                "spec name {:?} contains a reserved character (, = / or newline)",
                self.name
            ));
        }
        if self.axes.is_empty() {
            return Err("spec has no axes".into());
        }
        let mut seen_names = std::collections::BTreeSet::new();
        for axis in &self.axes {
            if axis.name.is_empty() {
                return Err("axis name is empty".into());
            }
            if !seen_names.insert(&axis.name) {
                return Err(format!("duplicate axis name {:?}", axis.name));
            }
            if axis.values.is_empty() {
                return Err(format!("axis {:?} has no values", axis.name));
            }
            let mixed = axis.values.iter().any(|v| v.as_str().is_some())
                && axis.values.iter().any(|v| v.as_f64().is_some());
            if mixed {
                return Err(format!(
                    "axis {:?} mixes string and float values (kinds cannot alias)",
                    axis.name
                ));
            }
            let mut seen_values = std::collections::BTreeSet::new();
            for value in &axis.values {
                if let Some(x) = value.as_f64() {
                    if !x.is_finite() {
                        return Err(format!(
                            "axis {:?} has a non-finite value {x} (domain bounds beyond \
                             finiteness are the driver's to enforce)",
                            axis.name
                        ));
                    }
                }
                if value.render().is_empty() {
                    return Err(format!(
                        "axis {:?} has an empty value (unrepresentable in the text format)",
                        axis.name
                    ));
                }
                if !seen_values.insert(value.render()) {
                    return Err(format!("axis {:?} repeats value {}", axis.name, value.render()));
                }
            }
        }
        if self.trials == 0 {
            return Err("spec needs at least one trial".into());
        }
        if !(self.horizon.is_finite() && self.horizon > 0.0) {
            return Err(format!("horizon {} must be positive and finite", self.horizon));
        }
        if !(0.0..1.0).contains(&self.kappa) {
            return Err(format!("kappa {} must be in [0, 1)", self.kappa));
        }
        Ok(())
    }

    /// Enumerates the grid in deterministic order: the first axis is the
    /// outermost loop (for the canonical three axes this is the historical
    /// network-major order).
    pub fn cells(&self) -> Vec<CellSpec> {
        let total = self.axes.iter().map(|a| a.values.len()).product();
        let mut out = Vec::with_capacity(total);
        let mut idx = vec![0usize; self.axes.len()];
        for _ in 0..total {
            out.push(CellSpec {
                assignment: self
                    .axes
                    .iter()
                    .zip(&idx)
                    .map(|(axis, &i)| (axis.name.clone(), axis.values[i].clone()))
                    .collect(),
            });
            for pos in (0..idx.len()).rev() {
                idx[pos] += 1;
                if idx[pos] < self.axes[pos].values.len() {
                    break;
                }
                idx[pos] = 0;
            }
        }
        out
    }

    /// Workload seed for trial `index` — shared across the whole grid so
    /// cells replay identical schedules (and share cache entries).
    pub fn workload_seed(&self, index: u32) -> u64 {
        trial_seed(self.seed, index as u64)
    }

    /// Defense seed for trial `index` (see [`defense_seed`]).
    pub fn defense_seed(&self, index: u32) -> u64 {
        defense_seed(self.workload_seed(index))
    }

    /// Serializes to the versioned text format:
    ///
    /// ```text
    /// sybil-exp-spec v2
    /// name = figure8
    /// axis network = str:bitcoin,bittorrent,gnutella,ethereum
    /// axis algo = str:ERGO,CCOM
    /// axis T = f64:0,1,4,0x40a0000000000000
    /// trials = 5
    /// horizon = 10000
    /// kappa = 0x3fac71c71c71c71c
    /// seed = 1
    /// ```
    ///
    /// Axis names and string values are percent-escaped; floats serialize
    /// as plain integers when exactly integral and as `0x`-prefixed bit
    /// patterns otherwise, so distinct specs never share a text.
    pub fn to_text(&self) -> String {
        let mut out = format!("{SPEC_MAGIC} v{SPEC_VERSION}\nname = {}\n", self.name);
        for axis in &self.axes {
            let kind = if axis.values.iter().all(|v| v.as_f64().is_some()) { "f64" } else { "str" };
            let values: Vec<String> = axis.values.iter().map(AxisValue::render).collect();
            out.push_str(&format!(
                "axis {} = {kind}:{}\n",
                escape_component(&axis.name),
                values.join(",")
            ));
        }
        out.push_str(&format!(
            "trials = {}\nhorizon = {}\nkappa = {}\nseed = {}\n",
            self.trials,
            fmt_f64_exact(self.horizon),
            fmt_f64_exact(self.kappa),
            self.seed,
        ));
        out
    }
}

/// SHA-256 fingerprint of an arbitrary canonical configuration text.
///
/// Drivers fold everything their axis labels *resolve to* — churn-model
/// parameters, defense configurations — into one canonical string and
/// bind the results store to the hash of spec text plus this context, so
/// a code change to a label's meaning invalidates stale cells.
pub fn text_fingerprint(text: &str) -> String {
    sybil_crypto::hex::encode(sybil_crypto::sha256::Sha256::digest(text.as_bytes()).as_bytes())
}

/// Derives the per-cell seed stream for `(base seed, cell, trial)`: the
/// first 8 bytes of SHA-256 of the canonical cell id folded into the base
/// seed, then chained through [`trial_seed`].
///
/// The stream is keyed on the **canonical cell id**, so it inherits the
/// id's no-collision guarantee: distinct cells get distinct streams.
/// Workload seeds deliberately stay grid-wide
/// ([`ExperimentSpec::workload_seed`]) so every cell of a trial replays
/// one cached workload; this stream is for the randomness cells must
/// *not* share — the DHT end-to-end driver derives its per-cell lookup
/// RNG from it. The derivation is a **frozen compatibility contract**:
/// stores record results produced under it, and a resumed grid must
/// replay identical streams.
pub fn cell_seed(base: u64, cell: &CellSpec, trial: u64) -> u64 {
    let digest = sybil_crypto::sha256::Sha256::digest(cell.id().as_bytes());
    let mut first = [0u8; 8];
    first.copy_from_slice(&digest.as_bytes()[..8]);
    trial_seed(base ^ u64::from_le_bytes(first), trial)
}

/// Derives the deterministic seed for trial `index` of an experiment
/// anchored at `base`. Pure function of its inputs (SplitMix64 finalizer),
/// so results never depend on worker count or scheduling order.
pub fn trial_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the defense-construction seed for a cell whose workload is
/// seeded with `seed`.
///
/// Kept distinct from the workload seed so classifier-gated defenses do
/// not share a stream with trace generation. Every runner that wants its
/// results comparable (e.g. the perf scenarios and the sweep cells) must
/// use this same derivation.
pub fn defense_seed(seed: u64) -> u64 {
    seed.wrapping_mul(7919).wrapping_add(13)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ExperimentSpec {
        ExperimentSpec::three_axis(
            "figure8-test",
            vec!["gnutella".into(), "bitcoin".into()],
            vec!["ERGO".into(), "CCOM".into()],
            vec![0.0, 16.0, 0.5],
            3,
            500.0,
            1.0 / 18.0,
            7,
        )
    }

    #[test]
    fn text_form_is_bit_exact() {
        // κ = 1/18 and T = 0.5 are not integral: they must appear as bit
        // patterns, the integral values as plain integers.
        assert_eq!(
            spec().to_text(),
            "sybil-exp-spec v2\n\
             name = figure8-test\n\
             axis network = str:gnutella,bitcoin\n\
             axis algo = str:ERGO,CCOM\n\
             axis T = f64:0,16,0x3fe0000000000000\n\
             trials = 3\n\
             horizon = 500\n\
             kappa = 0x3fac71c71c71c71c\n\
             seed = 7\n"
        );
    }

    #[test]
    fn seed_derivation_is_pinned() {
        // These values are what every stored grid was produced under
        // (grid-wide trial seeds, chained defense seeds) and must never
        // drift.
        let s = spec();
        assert_eq!(s.workload_seed(0), trial_seed(7, 0));
        assert_eq!(s.workload_seed(0), 0x63cb_e1e4_5932_0dd7u64);
        assert_eq!(s.workload_seed(2), 0xb5a7_c6fb_dbc4_2070u64);
        assert_eq!(s.defense_seed(2), defense_seed(s.workload_seed(2)));
        assert_eq!(s.defense_seed(2), 0x40f4_48e3_27e7_689du64);
    }

    #[test]
    fn escaping_roundtrips_and_is_injective_on_nasty_strings() {
        let nasty = [
            "1/2",
            "1of2",
            "a=b",
            "a%3Db",
            "x,y",
            "sp ace",
            "tab\there",
            "new\nline",
            "per%cent",
            "colon:kind",
            "ünïcode",
            "",
            "%",
            "%%",
            "/=,:",
            " ",
        ];
        let mut seen = std::collections::BTreeMap::new();
        for s in nasty {
            let esc = escape_component(s);
            assert_eq!(unescape_component(&esc).unwrap(), s, "roundtrip of {s:?}");
            assert!(
                !esc.chars().any(|c| "/=,:".contains(c) || c.is_whitespace() || c.is_control()),
                "escaped form {esc:?} leaks a structural character"
            );
            if let Some(prev) = seen.insert(esc.clone(), s) {
                panic!("{prev:?} and {s:?} both escape to {esc:?}");
            }
        }
        assert!(unescape_component("%zz").is_err());
        assert!(unescape_component("abc%2").is_err());
    }

    #[test]
    fn negative_zero_never_aliases_plain_zero() {
        // Regression: -0.0 == 0.0 and truncates to 0, so it used to print
        // as "0" — aliasing two representable floats in ids and spec text.
        assert_eq!(fmt_f64_exact(0.0), "0");
        assert_eq!(fmt_f64_exact(-0.0), "0x8000000000000000");
        assert_ne!(fmt_f64_exact(0.0), fmt_f64_exact(-0.0));
        // Ordinary negatives keep the readable integer form.
        assert_eq!(fmt_f64_exact(-3.0), "-3");
    }

    /// `id_t` reads back, bit for bit, every float `T` a cell id renders,
    /// and nothing from a string-valued `T`, another axis or a name that
    /// only starts with `T`.
    #[test]
    fn id_t_reads_back_the_t_a_cell_id_renders() {
        let id = |axes: Vec<(&str, AxisValue)>| {
            CellSpec::new(axes.into_iter().map(|(n, v)| (n.to_string(), v)).collect()).id()
        };
        for t in [0.0, -0.0, 1024.0, 1_048_576.0, -3.0, 0.5, 1e15, 1e300, f64::MIN_POSITIVE] {
            let cell =
                id(vec![(AXIS_NETWORK, AxisValue::Str("a/b".into())), (AXIS_T, AxisValue::F64(t))]);
            assert_eq!(id_t(&cell).map(f64::to_bits), Some(t.to_bits()), "{cell}");
        }
        assert_eq!(id_t(&id(vec![(AXIS_T, AxisValue::Str("1024".into()))])), None);
        assert_eq!(id_t(&id(vec![("TT", AxisValue::F64(5.0))])), None);
        assert_eq!(id_t(&id(vec![("frac", AxisValue::F64(5.0))])), None);
    }

    #[test]
    fn validation_catches_degenerate_grids() {
        let mut s = spec();
        s.trials = 0;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.axes[2].values = vec![AxisValue::F64(f64::NAN)];
        assert!(s.validate().is_err());
        let mut s = spec();
        s.axes[2].values = vec![AxisValue::F64(f64::INFINITY)];
        assert!(s.validate().unwrap_err().contains("non-finite"));
        let mut s = spec();
        s.kappa = 1.0;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.axes.clear();
        assert!(s.validate().is_err());
        // Duplicate axis names.
        let mut s = spec();
        s.axes[1].name = AXIS_NETWORK.into();
        assert!(s.validate().unwrap_err().contains("duplicate"));
        // Duplicate values within an axis.
        let mut s = spec();
        s.axes[0].values.push(AxisValue::Str("gnutella".into()));
        assert!(s.validate().unwrap_err().contains("repeats"));
        // Mixed kinds within an axis could alias ("16" vs 16.0).
        let mut s = spec();
        s.axes[0].values.push(AxisValue::F64(16.0));
        assert!(s.validate().unwrap_err().contains("mixes"));
        // Empty axis.
        let mut s = spec();
        s.axes[0].values.clear();
        assert!(s.validate().is_err());
        // Labels with separators are fine now — escaping handles them.
        let mut s = spec();
        s.axes[1].values = vec![AxisValue::Str("has,comma".into()), AxisValue::Str("a/b".into())];
        assert!(s.validate().is_ok());
    }

    #[test]
    fn cells_enumerate_first_axis_major() {
        let s = spec();
        let cells = s.cells();
        assert_eq!(cells.len(), 2 * 2 * 3);
        assert_eq!(cells[0].str_value(AXIS_NETWORK), "gnutella");
        assert_eq!(cells[0].str_value(AXIS_ALGO), "ERGO");
        assert_eq!(cells[0].f64_value(AXIS_T), 0.0);
        assert_eq!(cells[1].f64_value(AXIS_T), 16.0);
        assert_eq!(cells[3].str_value(AXIS_ALGO), "CCOM");
        assert_eq!(cells[6].str_value(AXIS_NETWORK), "bitcoin");
        // Ids are unique and canonical.
        let ids: std::collections::BTreeSet<String> = cells.iter().map(|c| c.id()).collect();
        assert_eq!(ids.len(), cells.len());
        assert_eq!(cells[0].id(), "network=gnutella/algo=ERGO/T=0");
    }

    #[test]
    fn cell_ids_distinguish_close_floats() {
        let a = CellSpec::new(vec![("T".into(), AxisValue::F64(0.1))]);
        // One ULP away: bit-distinct floats must never alias in the store.
        let b =
            CellSpec::new(vec![("T".into(), AxisValue::F64(f64::from_bits(0.1f64.to_bits() + 1)))]);
        assert_ne!(a.id(), b.id());
        let d = CellSpec::new(vec![("T".into(), AxisValue::F64(1024.0))]);
        assert_eq!(d.id(), "T=1024");
    }

    /// A value that changes *kind* across releases must change its cell
    /// id: `Str("1024")` and `F64(1024.0)` (and the `0x` bit-pattern
    /// shapes) may never render identically, or a warm run could resume
    /// the other kind's record. Explicit cell lists bypass spec-level
    /// kind validation, so the rendering itself must keep kinds disjoint.
    #[test]
    fn cell_ids_distinguish_value_kinds() {
        let id = |v: AxisValue| CellSpec::new(vec![("v".into(), v)]).id();
        assert_ne!(id(AxisValue::Str("1024".into())), id(AxisValue::F64(1024.0)));
        assert_ne!(id(AxisValue::Str("-3".into())), id(AxisValue::F64(-3.0)));
        assert_ne!(id(AxisValue::Str("0".into())), id(AxisValue::F64(0.0)));
        let bits = fmt_f64_exact(0.5); // "0x3fe0000000000000"
        assert_ne!(id(AxisValue::Str(bits.clone())), id(AxisValue::F64(0.5)));
        // The forced escape is still invertible.
        for s in ["1024", "-3", "0", &bits, "12a", "x1024"] {
            let rendered = AxisValue::Str(s.into()).render();
            assert_eq!(unescape_component(&rendered).unwrap(), s, "roundtrip of {s:?}");
        }
        // Distinct strings stay distinct under the forced escape too.
        assert_ne!(
            AxisValue::Str("1024".into()).render(),
            AxisValue::Str("%31024".into()).render()
        );
    }

    #[test]
    fn cell_ids_distinguish_separator_laden_values() {
        // The exact figure9 aliasing scenario: under the old
        // `label.replace('/', "of")` scheme these two collided.
        let a = CellSpec::new(vec![("frac".into(), AxisValue::Str("1/2".into()))]);
        let b = CellSpec::new(vec![("frac".into(), AxisValue::Str("1of2".into()))]);
        assert_ne!(a.id(), b.id());
        // '=' and '%' probes: escaping must not be foolable either.
        let c = CellSpec::new(vec![("k".into(), AxisValue::Str("a=b".into()))]);
        let d = CellSpec::new(vec![("k".into(), AxisValue::Str("a%3Db".into()))]);
        assert_ne!(c.id(), d.id());
        // Ids stay store-safe (no whitespace) even for nasty values.
        let e = CellSpec::new(vec![("k v".into(), AxisValue::Str("w x\ty".into()))]);
        assert!(!e.id().chars().any(char::is_whitespace), "{}", e.id());
    }

    /// Injectivity property: distinct axis assignments never yield equal
    /// cell ids, across randomized specs whose values deliberately contain
    /// the separators, the escape character, and each other's escaped
    /// forms.
    #[test]
    fn property_distinct_assignments_never_collide() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let alphabet: Vec<char> = "ab/=%,: \t.0x123of".chars().collect();
        for case in 0u64..64 {
            let mut rng = StdRng::seed_from_u64(0x5eed_0000 + case);
            let n_axes = rng.gen_range(1usize..4);
            let mut axes = Vec::new();
            for a in 0..n_axes {
                let float_axis = rng.gen_range(0u32..2) == 0;
                let n_vals = rng.gen_range(1usize..5);
                let mut values = Vec::new();
                let mut rendered = std::collections::BTreeSet::new();
                for _ in 0..n_vals {
                    let v = if float_axis {
                        AxisValue::F64(match rng.gen_range(0u32..4) {
                            0 => rng.gen_range(0.0f64..4.0),
                            1 => -rng.gen_range(0.0f64..4.0),
                            2 => rng.gen_range(0.0f64..4.0).floor(),
                            _ => {
                                f64::from_bits(rng.gen_range(0u64..u64::MAX) & !0x7ff0000000000000)
                            }
                        })
                    } else {
                        let len = rng.gen_range(1usize..8);
                        AxisValue::Str(
                            (0..len)
                                .map(|_| alphabet[rng.gen_range(0usize..alphabet.len())])
                                .collect(),
                        )
                    };
                    if rendered.insert(v.render()) {
                        values.push(v);
                    }
                }
                axes.push(Axis { name: format!("ax{a}"), values });
            }
            let spec = ExperimentSpec {
                name: format!("prop-{case}"),
                axes,
                trials: 1,
                horizon: 1.0,
                kappa: 0.0,
                seed: case,
            };
            spec.validate().unwrap_or_else(|e| panic!("case {case}: {e}"));
            let cells = spec.cells();
            let ids: std::collections::BTreeSet<String> = cells.iter().map(|c| c.id()).collect();
            assert_eq!(ids.len(), cells.len(), "case {case}: cell ids collided");
        }
    }

    #[test]
    fn seeds_are_distinct_and_stable() {
        let seeds: std::collections::BTreeSet<u64> = (0..1000).map(|i| trial_seed(42, i)).collect();
        assert_eq!(seeds.len(), 1000, "collisions in trial seeds");
        assert_eq!(trial_seed(42, 7), trial_seed(42, 7));
        assert_ne!(trial_seed(42, 7), trial_seed(43, 7));
        // Spec seed derivation chains trial → defense.
        let s = spec();
        assert_eq!(s.defense_seed(2), defense_seed(s.workload_seed(2)));
    }

    #[test]
    fn cell_seed_is_keyed_on_the_canonical_id() {
        let s = spec();
        let cells = s.cells();
        // Distinct cells get distinct streams; the same cell is stable.
        let a = cell_seed(s.seed, &cells[0], 0);
        assert_eq!(a, cell_seed(s.seed, &cells[0], 0));
        assert_ne!(a, cell_seed(s.seed, &cells[1], 0));
        assert_ne!(a, cell_seed(s.seed, &cells[0], 1));
        // Keyed on the id, not the struct: an identical assignment built
        // by hand produces the same seed.
        let rebuilt = CellSpec::new(cells[0].assignment.clone());
        assert_eq!(a, cell_seed(s.seed, &rebuilt, 0));
    }

    #[test]
    fn fingerprint_tracks_content() {
        // A results store is bound to the fingerprint of the spec's text.
        let fingerprint = |s: &ExperimentSpec| text_fingerprint(&s.to_text());
        let a = spec();
        let mut b = spec();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        b.trials += 1;
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a).len(), 64);
        // Axis naming is part of the identity.
        let mut c = spec();
        c.axes[2].name = "rate".into();
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }
}
