//! Legitimate ("ham") SMS templates.
//!
//! §7.2 recommends building detection models on the released dataset;
//! §2 complains that prior work trains on decade-old spam/ham corpora. A
//! detector needs negatives, so this module carries the benign traffic a
//! modern handset actually receives: OTPs, genuine delivery notices,
//! appointment reminders, personal chatter. The `smishing-detect` crate
//! trains against these.

use crate::templates::{render_pattern, Fills};
use rand::Rng;

/// A benign message category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HamKind {
    /// One-time passcodes from real services.
    Otp,
    /// Genuine delivery notifications (no fee, no link pressure).
    Delivery,
    /// Bank notifications (balance alerts, card-used notices).
    Banking,
    /// Appointment / booking reminders.
    Appointment,
    /// Personal conversation.
    Personal,
    /// Legitimate marketing the user opted into.
    Marketing,
}

impl HamKind {
    /// All kinds.
    pub const ALL: &'static [HamKind] = &[
        HamKind::Otp,
        HamKind::Delivery,
        HamKind::Banking,
        HamKind::Appointment,
        HamKind::Personal,
        HamKind::Marketing,
    ];
}

/// Ham templates (English; the detector study mirrors the paper's
/// English-centric evaluation).
pub const HAM_TEMPLATES: &[(HamKind, &str)] = &[
    // OTPs — note: legitimate OTPs never ask you to call back.
    (HamKind::Otp, "{code} is your verification code. It expires in 10 minutes. Do not share it with anyone."),
    (HamKind::Otp, "Your one-time passcode is {code}. If you didn't request this, you can ignore this message."),
    (HamKind::Otp, "Use code {code} to sign in. We will never ask you for this code."),
    // Delivery — tracking info without payment demands.
    (HamKind::Delivery, "Your parcel {tracking} has been dispatched and will arrive tomorrow between 9am and 1pm."),
    (HamKind::Delivery, "Good news! Your order was delivered today at 14:02. Thanks for shopping with us."),
    (HamKind::Delivery, "Driver update: your package {tracking} is 3 stops away."),
    // Banking — informational, no links demanding action.
    (HamKind::Banking, "You spent {amount} at TESCO STORES on your card ending 4821. Your new balance is available in the app."),
    (HamKind::Banking, "Direct debit of {amount} to GREEN ENERGY CO will be taken on 28 Aug."),
    (HamKind::Banking, "Your salary of {amount} has been credited to your account."),
    // Appointments.
    (HamKind::Appointment, "Reminder: you have a dental appointment on Thursday at 15:30. Reply C to confirm or R to reschedule."),
    (HamKind::Appointment, "Your table for 2 at Nonna's is confirmed for Friday 19:00. See you then!"),
    (HamKind::Appointment, "GP surgery: your repeat prescription is ready for collection."),
    // Personal.
    (HamKind::Personal, "Running 10 mins late, order me a flat white please x"),
    (HamKind::Personal, "Happy birthday!! Hope you have a lovely day, see you Saturday"),
    (HamKind::Personal, "Did you feed the cat before you left?"),
    (HamKind::Personal, "Train's delayed again, don't wait for me for dinner"),
    // Opted-in marketing (distinct from scam/spam: no prize bait).
    (HamKind::Marketing, "Your loyalty statement is ready: you earned 240 points in July. Manage preferences in the app."),
    (HamKind::Marketing, "Flash reminder: your basket is still waiting. Items are reserved until midnight."),
];

/// A generated ham message with its kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HamMessage {
    /// Category.
    pub kind: HamKind,
    /// The text.
    pub text: String,
}

/// Generate `n` ham messages (deterministic under the RNG).
pub fn generate_ham<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<HamMessage> {
    (0..n)
        .map(|_| {
            let (kind, pattern) = HAM_TEMPLATES[rng.gen_range(0..HAM_TEMPLATES.len())];
            let fills = Fills {
                brand: None,
                url: None,
                name: None,
                amount: Some(format!("£{:.2}", rng.gen_range(2.0..900.0))),
                tracking: Some(format!("JD{:010}", rng.gen_range(0..10_000_000_000u64))),
                code: Some(format!("{:06}", rng.gen_range(0..1_000_000u32))),
                number: None,
            };
            HamMessage {
                kind,
                text: render_pattern(pattern, &fills),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generates_filled_messages() {
        let mut rng = StdRng::seed_from_u64(1);
        let ham = generate_ham(200, &mut rng);
        assert_eq!(ham.len(), 200);
        for m in &ham {
            assert!(!m.text.contains('{'), "{}", m.text);
            assert!(!m.text.is_empty());
        }
    }

    #[test]
    fn all_kinds_appear() {
        let mut rng = StdRng::seed_from_u64(2);
        let ham = generate_ham(500, &mut rng);
        for kind in HamKind::ALL {
            assert!(ham.iter().any(|m| m.kind == *kind), "{kind:?} missing");
        }
    }

    #[test]
    fn ham_carries_no_scam_cues_the_detector_relies_on() {
        // Ham may mention money and parcels, but never the smishing core:
        // a URL plus an action demand.
        let mut rng = StdRng::seed_from_u64(3);
        for m in generate_ham(300, &mut rng) {
            assert!(!m.text.contains("http"), "{}", m.text);
        }
    }

    #[test]
    fn deterministic() {
        let a = generate_ham(50, &mut StdRng::seed_from_u64(9));
        let b = generate_ham(50, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
