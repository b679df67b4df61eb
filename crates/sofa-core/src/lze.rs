//! Leading-zero encoding (LZE) — the log-domain representation behind DLZS.
//!
//! An integer `x` is approximated by its sign and the position of its most
//! significant set bit: `|x| ≈ 2^(e-1)` where `e = W − LZ(x)` (`W` = bit
//! width, `LZ` = leading-zero count). The paper calls `e` the leading-zero
//! code; weights are pre-converted to this 4-bit code offline so the
//! pre-compute stage never multiplies — it only shifts the full-precision
//! operand by `e − 1`.
//!
//! Two multiplication approximations are provided:
//!
//! * [`approx_mul_dlzs`] — *differential*: one operand keeps full precision,
//!   the other contributes only its exponent (one shift). This is SOFA's
//!   scheme: `24 × 6 ≈ 24 << 2 = 96` (exact 144).
//! * [`approx_mul_vanilla`] — both operands are reduced to powers of two:
//!   `24 × 6 ≈ 16 × 4 = 64`. Twice the converters and roughly twice the error
//!   (paper Fig. 7(b)/(c)).

/// A leading-zero code: sign plus MSB position (`0` encodes the value zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LzCode {
    /// `true` if the encoded value was negative.
    pub negative: bool,
    /// MSB position `e = W − LZ(|x|)`; `0` means the value was zero.
    /// For 8-bit inputs `e ∈ 0..=8` (4-bit code), for 16-bit inputs
    /// `e ∈ 0..=16` (5-bit code).
    pub exponent: u8,
}

impl LzCode {
    /// The code for zero.
    pub const ZERO: LzCode = LzCode {
        negative: false,
        exponent: 0,
    };

    /// Returns `true` if this code represents zero.
    pub fn is_zero(&self) -> bool {
        self.exponent == 0
    }

    /// The approximate magnitude `2^(e-1)` this code stands for (0 for zero).
    pub fn magnitude(&self) -> i64 {
        if self.exponent == 0 {
            0
        } else {
            1i64 << (self.exponent - 1)
        }
    }

    /// The approximate signed value.
    pub fn value(&self) -> i64 {
        if self.negative {
            -self.magnitude()
        } else {
            self.magnitude()
        }
    }

    /// Number of storage bits of this code for a `width`-bit source operand:
    /// `ceil(log2(width+1))` exponent bits plus one sign bit.
    pub fn storage_bits(width: u32) -> u32 {
        let mut bits = 0;
        while (1u32 << bits) < width + 1 {
            bits += 1;
        }
        bits + 1
    }
}

/// Encodes an integer that is known to fit in `width` bits (signed).
///
/// # Panics
///
/// Panics if `width` is not 8 or 16, or if `value` does not fit in `width`
/// signed bits.
pub fn encode(value: i32, width: u32) -> LzCode {
    assert!(width == 8 || width == 16, "only 8- and 16-bit modes exist");
    let limit = 1i32 << (width - 1);
    assert!(
        value >= -limit && value < limit || value == limit - 1 || value == -limit,
        "value {value} does not fit in {width} signed bits"
    );
    let mag = value.unsigned_abs();
    if mag == 0 {
        return LzCode::ZERO;
    }
    let e = 32 - mag.leading_zeros();
    LzCode {
        negative: value < 0,
        exponent: e as u8,
    }
}

/// Encodes an 8-bit value (the weight/token path of the DLZS engine).
pub fn encode_i8(value: i8) -> LzCode {
    encode(value as i32, 8)
}

/// Encodes a 16-bit value (the Q path of the attention-prediction phase).
pub fn encode_i16(value: i16) -> LzCode {
    encode(value as i32, 16)
}

/// The hardware-style configurable leading-zero encoder: two 8-bit leading
/// zero counters that work independently in 8-bit mode or are chained in
/// 16-bit mode (paper Fig. 12, left).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigurableLze {
    /// Operating width: 8 or 16 bits.
    pub width: u32,
}

impl ConfigurableLze {
    /// Creates an encoder in the given mode.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 8 or 16.
    pub fn new(width: u32) -> Self {
        assert!(width == 8 || width == 16, "only 8- and 16-bit modes exist");
        ConfigurableLze { width }
    }

    /// Encodes one value in the configured mode.
    pub fn encode(&self, value: i32) -> LzCode {
        encode(value, self.width)
    }

    /// Encodes a slice of values, returning the codes.
    pub fn encode_all(&self, values: &[i32]) -> Vec<LzCode> {
        values.iter().map(|&v| self.encode(v)).collect()
    }
}

/// DLZS multiplication: the full-precision operand is shifted by the code's
/// exponent. `x · y ≈ sign · |x| << (e(y) − 1)`.
pub fn approx_mul_dlzs(full: i32, code: LzCode) -> i64 {
    if code.is_zero() || full == 0 {
        return 0;
    }
    let mag = (full.unsigned_abs() as i64) << (code.exponent - 1);
    let negative = (full < 0) ^ code.negative;
    if negative {
        -mag
    } else {
        mag
    }
}

/// Vanilla leading-zero multiplication: both operands reduced to their leading
/// one. `x · y ≈ sign · 2^(e(x)−1+e(y)−1)`.
pub fn approx_mul_vanilla(a: LzCode, b: LzCode) -> i64 {
    if a.is_zero() || b.is_zero() {
        return 0;
    }
    let mag = 1i64 << ((a.exponent - 1) + (b.exponent - 1));
    if a.negative ^ b.negative {
        -mag
    } else {
        mag
    }
}

/// Mean absolute relative error of an approximate-product function over all
/// pairs of the provided operand sets (exact zero products are skipped).
pub fn mean_relative_error<F>(lhs: &[i32], rhs: &[i32], mut approx: F) -> f64
where
    F: FnMut(i32, i32) -> i64,
{
    let mut total = 0.0;
    let mut n = 0u64;
    for &a in lhs {
        for &b in rhs {
            let exact = a as i64 * b as i64;
            if exact == 0 {
                continue;
            }
            let got = approx(a, b);
            total += ((exact - got).abs() as f64) / (exact.abs() as f64);
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_zero_and_powers() {
        assert_eq!(encode_i8(0), LzCode::ZERO);
        assert!(encode_i8(0).is_zero());
        assert_eq!(encode_i8(1).exponent, 1);
        assert_eq!(encode_i8(2).exponent, 2);
        assert_eq!(encode_i8(64).exponent, 7);
        assert_eq!(encode_i8(127).exponent, 7);
        assert_eq!(encode_i8(-128).exponent, 8);
        assert!(encode_i8(-3).negative);
    }

    #[test]
    fn encode_i16_wide_values() {
        assert_eq!(encode_i16(255).exponent, 8);
        assert_eq!(encode_i16(256).exponent, 9);
        assert_eq!(encode_i16(i16::MAX).exponent, 15);
        assert_eq!(encode_i16(i16::MIN).exponent, 16);
    }

    #[test]
    fn code_magnitude_and_value() {
        let c = encode_i8(-24);
        assert_eq!(c.exponent, 5);
        assert_eq!(c.magnitude(), 16);
        assert_eq!(c.value(), -16);
        assert_eq!(LzCode::ZERO.value(), 0);
    }

    #[test]
    fn storage_bits_are_compact() {
        // 8-bit operands need a 4-bit exponent (0..=8) + sign.
        assert_eq!(LzCode::storage_bits(8), 5);
        // 16-bit operands need a 5-bit exponent (0..=16) + sign.
        assert_eq!(LzCode::storage_bits(16), 6);
    }

    #[test]
    fn paper_worked_example() {
        // 24 × 6 = 144. DLZS: 24 << (e(6)-1) = 24 << 2 = 96.
        // Vanilla: 16 × 4 = 64.
        let six = encode_i8(6);
        assert_eq!(approx_mul_dlzs(24, six), 96);
        assert_eq!(approx_mul_vanilla(encode_i8(24), six), 64);
        let exact = 144i64;
        assert!((exact - 96).abs() < (exact - 64).abs(), "DLZS is closer");
    }

    #[test]
    fn dlzs_sign_handling() {
        let c = encode_i8(-6);
        assert_eq!(approx_mul_dlzs(24, c), -96);
        assert_eq!(approx_mul_dlzs(-24, c), 96);
        assert_eq!(approx_mul_dlzs(0, c), 0);
        assert_eq!(approx_mul_dlzs(24, LzCode::ZERO), 0);
    }

    #[test]
    fn vanilla_sign_and_zero() {
        assert_eq!(approx_mul_vanilla(encode_i8(-8), encode_i8(8)), -64);
        assert_eq!(approx_mul_vanilla(LzCode::ZERO, encode_i8(5)), 0);
    }

    #[test]
    fn dlzs_error_is_lower_than_vanilla() {
        let xs: Vec<i32> = (-127..=127).step_by(3).collect();
        let ys: Vec<i32> = (-127..=127).step_by(7).collect();
        let dlzs_err = mean_relative_error(&xs, &ys, |a, b| approx_mul_dlzs(a, encode(b, 8)));
        let vanilla_err = mean_relative_error(&xs, &ys, |a, b| {
            approx_mul_vanilla(encode(a, 8), encode(b, 8))
        });
        assert!(
            dlzs_err < vanilla_err,
            "DLZS error {dlzs_err} must beat vanilla {vanilla_err}"
        );
        // The paper claims roughly half the error.
        assert!(dlzs_err < 0.75 * vanilla_err);
    }

    #[test]
    fn configurable_lze_modes() {
        let lze8 = ConfigurableLze::new(8);
        let lze16 = ConfigurableLze::new(16);
        assert_eq!(lze8.encode(100).exponent, 7);
        assert_eq!(lze16.encode(1000).exponent, 10);
        assert_eq!(lze8.encode_all(&[1, 2, 4]).len(), 3);
    }

    #[test]
    #[should_panic(expected = "8- and 16-bit")]
    fn invalid_width_panics() {
        let _ = ConfigurableLze::new(12);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn out_of_range_value_panics() {
        let _ = encode(300, 8);
    }

    /// Every distinct code a `width`-bit operand encodes to.
    fn all_codes(width: u32) -> Vec<LzCode> {
        let lim = 1i32 << (width - 1);
        let mut codes: Vec<LzCode> = Vec::new();
        for c in -lim..lim {
            let code = encode(c, width);
            if !codes.contains(&code) {
                codes.push(code);
            }
        }
        codes
    }

    #[test]
    fn decoded_code_times_operand_equals_the_dlzs_shift_for_every_lane() {
        // The host kernels multiply by the decoded power of two instead of
        // shifting; this pins the two equal on every operand/code pair, and
        // pins the i16 bounds the kernels rely on.
        let codes8 = all_codes(8);
        let codes16 = all_codes(16);
        assert_eq!((codes8.len(), codes16.len()), (16, 32));
        for &code in &codes8 {
            for full in i8::MIN as i32..=i8::MAX as i32 {
                let lane = full as i64 * code.value();
                assert_eq!(lane, approx_mul_dlzs(full, code), "{full} × {code:?}");
                assert!(i16::try_from(lane).is_ok(), "{full} × {code:?}");
            }
        }
        for &code in &codes16 {
            assert!(i16::try_from(code.value()).is_ok(), "{code:?}");
            for full in i16::MIN as i32..=i16::MAX as i32 {
                let lane = full as i64 * code.value();
                assert_eq!(lane, approx_mul_dlzs(full, code), "{full} × {code:?}");
            }
        }
    }

    #[test]
    fn dlzs_never_overestimates_by_more_than_2x() {
        // |x|·2^(e(y)-1) ≤ |x·y| < |x|·2^(e(y)), so the approximation is
        // within [0.5, 1] of the exact magnitude.
        for a in [-113i32, -5, 3, 77, 127] {
            for b in [-128i32, -9, 1, 6, 100] {
                let exact = (a as i64 * b as i64).abs();
                let approx = approx_mul_dlzs(a, encode(b, 8)).abs();
                assert!(approx <= exact, "{a}*{b}: {approx} > {exact}");
                assert!(2 * approx >= exact, "{a}*{b}: {approx} < half of {exact}");
            }
        }
    }
}
