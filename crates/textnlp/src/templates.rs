//! The multilingual smishing template corpus.
//!
//! Campaigns render messages from templates; the translation stage
//! ([`crate::translate`]) recognizes a rendered template and re-renders its
//! English counterpart with the same fillers — playing the role GPT-4o's
//! multilingual competence plays in the paper (§3.2).
//!
//! A template is a pattern with placeholders:
//!
//! - `{brand}` — an alias of the impersonated brand (possibly leeted),
//! - `{url}` — the phishing URL,
//! - `{name}` — a victim first name,
//! - `{amount}` — a money amount,
//! - `{tracking}` — a parcel tracking code,
//! - `{code}` — an OTP-like code,
//! - `{number}` — a phone number to call/text back.
//!
//! The 13 major languages (Table 11's >100-message block) carry hand-written
//! phrasebooks; each tail language gets one lexicon-derived banking template
//! so 66-way language identification is exercised end-to-end (see the
//! honesty note in [`crate::lexicon`]).

use smishing_types::{Language, Lure, LureSet, ScamType, Sector};
use std::sync::OnceLock;

/// A message template.
#[derive(Debug, Clone)]
pub struct Template {
    /// Stable index in the library.
    pub id: usize,
    /// Scam category the template belongs to.
    pub scam_type: ScamType,
    /// Language of `pattern`.
    pub language: Language,
    /// Ground-truth lures the wording employs.
    pub lures: LureSet,
    /// The localized pattern.
    pub pattern: String,
    /// English counterpart with the same placeholder multiset.
    pub english: String,
    /// Sector whose brands may fill `{brand}` (None = no brand slot).
    pub brand_sector: Option<Sector>,
}

impl Template {
    /// Whether the template carries a URL slot.
    pub fn needs_url(&self) -> bool {
        self.pattern.contains("{url}")
    }

    /// Placeholders in `pattern`, in order.
    pub fn placeholders(&self) -> Vec<&str> {
        placeholders_of(&self.pattern)
    }

    /// Render the pattern with fillers (see [`render_pattern`]).
    pub fn render(&self, fills: &Fills) -> String {
        render_pattern(&self.pattern, fills)
    }

    /// Render the English counterpart with fillers.
    pub fn render_english(&self, fills: &Fills) -> String {
        render_pattern(&self.english, fills)
    }
}

/// Filler values for a template render.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fills {
    /// Brand surface form.
    pub brand: Option<String>,
    /// URL string.
    pub url: Option<String>,
    /// Victim first name.
    pub name: Option<String>,
    /// Money amount (already formatted, e.g. "£245.50").
    pub amount: Option<String>,
    /// Tracking code.
    pub tracking: Option<String>,
    /// OTP-like code.
    pub code: Option<String>,
    /// Call-back number.
    pub number: Option<String>,
}

impl Fills {
    fn get(&self, key: &str) -> Option<&str> {
        match key {
            "brand" => self.brand.as_deref(),
            "url" => self.url.as_deref(),
            "name" => self.name.as_deref(),
            "amount" => self.amount.as_deref(),
            "tracking" => self.tracking.as_deref(),
            "code" => self.code.as_deref(),
            "number" => self.number.as_deref(),
            _ => None,
        }
    }

    fn set(&mut self, key: &str, value: String) {
        match key {
            "brand" => self.brand = Some(value),
            "url" => self.url = Some(value),
            "name" => self.name = Some(value),
            "amount" => self.amount = Some(value),
            "tracking" => self.tracking = Some(value),
            "code" => self.code = Some(value),
            "number" => self.number = Some(value),
            _ => {}
        }
    }
}

/// Placeholders of a pattern, in order.
pub fn placeholders_of(pattern: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = pattern;
    while let Some(open) = rest.find('{') {
        let Some(close) = rest[open..].find('}') else {
            break;
        };
        out.push(&rest[open + 1..open + close]);
        rest = &rest[open + close + 1..];
    }
    out
}

/// Render a pattern with fillers; missing fillers render as empty strings.
pub fn render_pattern(pattern: &str, fills: &Fills) -> String {
    let mut out = String::with_capacity(pattern.len() + 32);
    let mut rest = pattern;
    while let Some(open) = rest.find('{') {
        out.push_str(&rest[..open]);
        let Some(close) = rest[open..].find('}') else {
            out.push_str(&rest[open..]);
            return out;
        };
        let key = &rest[open + 1..open + close];
        if let Some(v) = fills.get(key) {
            out.push_str(v);
        }
        rest = &rest[open + close + 1..];
    }
    out.push_str(rest);
    out
}

/// Try to match `text` against `pattern`, extracting fillers.
///
/// Literal segments must appear in order; filler spans are whatever lies
/// between them. Returns `None` on any literal mismatch.
pub fn match_pattern(pattern: &str, text: &str) -> Option<Fills> {
    let mut fills = Fills::default();
    let mut segments: Vec<(Option<&str>, &str)> = Vec::new(); // (placeholder before, literal)
    let mut rest = pattern;
    let mut pending_ph: Option<&str> = None;
    while let Some(open) = rest.find('{') {
        let close = rest[open..].find('}')?;
        segments.push((pending_ph.take(), &rest[..open]));
        pending_ph = Some(&rest[open + 1..open + close]);
        rest = &rest[open + close + 1..];
    }
    segments.push((pending_ph, rest));

    let mut cursor = 0usize;
    let mut prev_ph: Option<&str> = None;
    for (ph_before, literal) in segments {
        if let Some(ph) = ph_before {
            prev_ph = Some(ph);
        }
        if literal.is_empty() {
            continue;
        }
        let found = text[cursor..].find(literal)?;
        if let Some(ph) = prev_ph.take() {
            let value = text[cursor..cursor + found].trim();
            if value.is_empty() {
                return None;
            }
            fills.set(ph, value.to_string());
        } else if found != 0 {
            return None; // leading junk with no placeholder to absorb it
        }
        cursor += found + literal.len();
    }
    if let Some(ph) = prev_ph {
        let value = text[cursor..].trim();
        if value.is_empty() {
            return None;
        }
        fills.set(ph, value.to_string());
        cursor = text.len();
    }
    // Require full consumption modulo trailing whitespace.
    if !text[cursor..].trim().is_empty() {
        return None;
    }
    Some(fills)
}

/// Static template source: (scam type, language, lures, pattern, english,
/// brand sector).
type Src = (
    ScamType,
    Language,
    &'static [Lure],
    &'static str,
    &'static str,
    Option<Sector>,
);

use Language as L;
use Lure as Lu;
use ScamType as St;
use Sector as Se;

const AUTH_URG: &[Lure] = &[Lu::Authority, Lu::TimeUrgency];
const AUTH_GREED: &[Lure] = &[Lu::Authority, Lu::NeedAndGreed];
const AUTH_GREED_URG: &[Lure] = &[Lu::Authority, Lu::NeedAndGreed, Lu::TimeUrgency];
const CONVO: &[Lure] = &[Lu::Distraction, Lu::Kindness];
const MUMDAD: &[Lure] = &[Lu::Distraction, Lu::Kindness, Lu::TimeUrgency];
const GREED_HERD: &[Lure] = &[Lu::NeedAndGreed, Lu::Herd];

/// Hand-written templates for the major languages.
const SOURCES: &[Src] = &[
    // ================= English =================
    // Banking
    (St::Banking, L::English, AUTH_URG,
     "{brand} ALERT: Your account has been suspended due to unusual activity. Verify your details within 24 hours at {url} or your account will be closed.",
     "{brand} ALERT: Your account has been suspended due to unusual activity. Verify your details within 24 hours at {url} or your account will be closed.",
     Some(Se::Banking)),
    (St::Banking, L::English, AUTH_URG,
     "{brand}: A new device has logged into your account. If this was not you, secure your account immediately at {url}",
     "{brand}: A new device has logged into your account. If this was not you, secure your account immediately at {url}",
     Some(Se::Banking)),
    (St::Banking, L::English, AUTH_URG,
     "Dear customer, your {brand} net banking will be blocked today. Please update your KYC at {url} urgently.",
     "Dear customer, your {brand} net banking will be blocked today. Please update your KYC at {url} urgently.",
     Some(Se::Banking)),
    (St::Banking, L::English, AUTH_URG,
     "{brand}: your card has been frozen after a payment of {amount} was attempted. Review this payment now at {url}",
     "{brand}: your card has been frozen after a payment of {amount} was attempted. Review this payment now at {url}",
     Some(Se::Banking)),
    (St::Banking, L::English, AUTH_GREED,
     "{brand}: you have received a refund of {amount}. Claim your refund here: {url}",
     "{brand}: you have received a refund of {amount}. Claim your refund here: {url}",
     Some(Se::Banking)),
    (St::Banking, L::English, AUTH_URG,
     "{brand} security: your password expires today. Reset it at {url} to keep access to your account.",
     "{brand} security: your password expires today. Reset it at {url} to keep access to your account.",
     Some(Se::Banking)),
    // Delivery
    (St::Delivery, L::English, AUTH_URG,
     "{brand}: your parcel {tracking} is held at our depot. A redelivery fee of {amount} is due. Pay within 24 hours at {url}",
     "{brand}: your parcel {tracking} is held at our depot. A redelivery fee of {amount} is due. Pay within 24 hours at {url}",
     Some(Se::Delivery)),
    (St::Delivery, L::English, AUTH_URG,
     "{brand}: we attempted delivery of parcel {tracking} today. Reschedule immediately at {url} or it will be returned.",
     "{brand}: we attempted delivery of parcel {tracking} today. Reschedule immediately at {url} or it will be returned.",
     Some(Se::Delivery)),
    (St::Delivery, L::English, AUTH_URG,
     "{brand}: a customs charge of {amount} is outstanding on your package {tracking}. Settle it now at {url}",
     "{brand}: a customs charge of {amount} is outstanding on your package {tracking}. Settle it now at {url}",
     Some(Se::Delivery)),
    (St::Delivery, L::English, AUTH_URG,
     "Your {brand} package could not be delivered due to an incomplete address. Update your address today: {url}",
     "Your {brand} package could not be delivered due to an incomplete address. Update your address today: {url}",
     Some(Se::Delivery)),
    (St::Delivery, L::English, AUTH_URG,
     "{brand}: final notice for parcel {tracking}. Confirm your details at {url} within 12 hours.",
     "{brand}: final notice for parcel {tracking}. Confirm your details at {url} within 12 hours.",
     Some(Se::Delivery)),
    // Government
    (St::Government, L::English, AUTH_GREED_URG,
     "{brand}: you are eligible for a tax refund of {amount}. Claim before the deadline at {url}",
     "{brand}: you are eligible for a tax refund of {amount}. Claim before the deadline at {url}",
     Some(Se::Government)),
    (St::Government, L::English, AUTH_URG,
     "{brand}: an unpaid toll of {amount} is registered to your vehicle. Pay immediately at {url} to avoid a penalty.",
     "{brand}: an unpaid toll of {amount} is registered to your vehicle. Pay immediately at {url} to avoid a penalty.",
     Some(Se::Government)),
    (St::Government, L::English, AUTH_URG,
     "{brand} FINAL NOTICE: your tax return is overdue. Failure to respond today leads to prosecution. Act now: {url}",
     "{brand} FINAL NOTICE: your tax return is overdue. Failure to respond today leads to prosecution. Act now: {url}",
     Some(Se::Government)),
    (St::Government, L::English, AUTH_URG,
     "{brand}: your driving licence points require urgent review. Check your record at {url}",
     "{brand}: your driving licence points require urgent review. Check your record at {url}",
     Some(Se::Government)),
    // Telecom
    (St::Telecom, L::English, AUTH_URG,
     "{brand}: your latest bill payment failed. Update your payment method today at {url} to avoid service suspension.",
     "{brand}: your latest bill payment failed. Update your payment method today at {url} to avoid service suspension.",
     Some(Se::Telecom)),
    (St::Telecom, L::English, AUTH_GREED_URG,
     "{brand}: your loyalty points worth {amount} expire today! Redeem your reward now: {url}",
     "{brand}: your loyalty points worth {amount} expire today! Redeem your reward now: {url}",
     Some(Se::Telecom)),
    (St::Telecom, L::English, AUTH_URG,
     "{brand}: your SIM will be deactivated within 24 hours. Re-verify your identity at {url}",
     "{brand}: your SIM will be deactivated within 24 hours. Re-verify your identity at {url}",
     Some(Se::Telecom)),
    (St::Telecom, L::English, AUTH_GREED,
     "{brand} thanks you for your loyalty! You can claim a free upgrade gift here: {url}",
     "{brand} thanks you for your loyalty! You can claim a free upgrade gift here: {url}",
     Some(Se::Telecom)),
    // Wrong number
    (St::WrongNumber, L::English, CONVO,
     "Hi {name}, are we still on for dinner on Saturday? It's been ages!",
     "Hi {name}, are we still on for dinner on Saturday? It's been ages!",
     None),
    (St::WrongNumber, L::English, CONVO,
     "Hello, is this {name}? I got your number from Jenny about the yoga class.",
     "Hello, is this {name}? I got your number from Jenny about the yoga class.",
     None),
    (St::WrongNumber, L::English, CONVO,
     "Hey {name}! Long time no see. How have you been? This is my new number by the way.",
     "Hey {name}! Long time no see. How have you been? This is my new number by the way.",
     None),
    (St::WrongNumber, L::English, CONVO,
     "Good morning! Is this the right number for {name}? I wanted to ask about the apartment.",
     "Good morning! Is this the right number for {name}? I wanted to ask about the apartment.",
     None),
    (St::WrongNumber, L::English, CONVO,
     "Hey, is this still {name}? It's me from the gym! My number changed, message me on WhatsApp instead: {url}",
     "Hey, is this still {name}? It's me from the gym! My number changed, message me on WhatsApp instead: {url}",
     None),
    // Hey mum/dad
    (St::HeyMumDad, L::English, MUMDAD,
     "Hi mum, my phone broke so message me on WhatsApp instead: {url} please, I need your help today x",
     "Hi mum, my phone broke so message me on WhatsApp instead: {url} please, I need your help today x",
     None),
    (St::HeyMumDad, L::English, MUMDAD,
     "Hi mum, I dropped my phone down the toilet, this is my new number. Please help, I need to pay a bill today and my payment app is locked out. Text me back asap x",
     "Hi mum, I dropped my phone down the toilet, this is my new number. Please help, I need to pay a bill today and my payment app is locked out. Text me back asap x",
     None),
    (St::HeyMumDad, L::English, MUMDAD,
     "Hey dad it's me, my phone broke so I'm using a friend's. Can you help me out? I need {amount} urgently for rent, I'll pay you back tomorrow. Message me on {number}",
     "Hey dad it's me, my phone broke so I'm using a friend's. Can you help me out? I need {amount} urgently for rent, I'll pay you back tomorrow. Message me on {number}",
     None),
    (St::HeyMumDad, L::English, MUMDAD,
     "Mum please save this number, my old phone is being repaired. Can you text me back quickly? It's important and I need your help x",
     "Mum please save this number, my old phone is being repaired. Can you text me back quickly? It's important and I need your help x",
     None),
    (St::HeyMumDad, L::English, MUMDAD,
     "Hi dad, my screen smashed and this is my temporary number. Please help, I locked myself out of my payments app and money is due today.",
     "Hi dad, my screen smashed and this is my temporary number. Please help, I locked myself out of my payments app and money is due today.",
     None),
    // Others
    (St::Others, L::English, AUTH_URG,
     "{brand}: your account will be charged {amount} unless you cancel your subscription renewal here: {url}",
     "{brand}: your account will be charged {amount} unless you cancel your subscription renewal here: {url}",
     Some(Se::Tech)),
    (St::Others, L::English, AUTH_URG,
     "{brand}: your account was accessed from a new location. Confirm it was you or your profile will be locked: {url}",
     "{brand}: your account was accessed from a new location. Confirm it was you or your profile will be locked: {url}",
     Some(Se::Tech)),
    (St::Others, L::English, &[Lu::Authority, Lu::NeedAndGreed, Lu::Herd],
     "Thousands of traders have already doubled their savings with {brand}. Join them and claim your {amount} welcome bonus: {url}",
     "Thousands of traders have already doubled their savings with {brand}. Join them and claim your {amount} welcome bonus: {url}",
     Some(Se::Crypto)),
    (St::Others, L::English, &[Lu::Dishonesty, Lu::NeedAndGreed],
     "Insider tip: move your crypto holdings before the announcement and pocket the profit quietly. Discreet access here: {url}",
     "Insider tip: move your crypto holdings before the announcement and pocket the profit quietly. Discreet access here: {url}",
     None),
    (St::Others, L::English, &[Lu::NeedAndGreed, Lu::TimeUrgency],
     "We reviewed your profile for a part-time job paying {amount} per day. Limited slots, apply today: {url}",
     "We reviewed your profile for a part-time job paying {amount} per day. Limited slots, apply today: {url}",
     None),
    (St::Others, L::English, AUTH_URG,
     "Your {brand} verification code is {code}. If you did not request this, call us back on {number} immediately.",
     "Your {brand} verification code is {code}. If you did not request this, call us back on {number} immediately.",
     Some(Se::Tech)),
    // Spam
    (St::Spam, L::English, &[Lu::NeedAndGreed, Lu::Herd, Lu::TimeUrgency],
     "MEGA CASINO: 50 free spins waiting! Players won {amount} this week alone. Play now: {url}",
     "MEGA CASINO: 50 free spins waiting! Players won {amount} this week alone. Play now: {url}",
     None),
    (St::Spam, L::English, &[Lu::NeedAndGreed],
     "FLASH SALE: 80% off everything this weekend only. Shop the deals: {url}",
     "FLASH SALE: 80% off everything this weekend only. Shop the deals: {url}",
     None),
    (St::Spam, L::English, &[Lu::NeedAndGreed, Lu::TimeUrgency],
     "You were selected in our monthly draw! Claim your prize of {amount} before Friday: {url}",
     "You were selected in our monthly draw! Claim your prize of {amount} before Friday: {url}",
     None),
    (St::Spam, L::English, &[Lu::NeedAndGreed],
     "Hot stock alert: NVT shares tipped to triple. Free newsletter: {url}",
     "Hot stock alert: NVT shares tipped to triple. Free newsletter: {url}",
     None),
    // ================= Spanish =================
    (St::Banking, L::Spanish, AUTH_URG,
     "{brand}: su cuenta ha sido suspendida por actividad inusual. Verifique sus datos hoy en {url} o su cuenta será bloqueada.",
     "{brand}: your account has been suspended for unusual activity. Verify your details today at {url} or your account will be blocked.",
     Some(Se::Banking)),
    (St::Banking, L::Spanish, AUTH_URG,
     "{brand}: se ha detectado un acceso no autorizado. Por favor confirme su identidad aquí: {url}",
     "{brand}: an unauthorized access has been detected. Please confirm your identity here: {url}",
     Some(Se::Banking)),
    (St::Banking, L::Spanish, AUTH_GREED,
     "{brand}: tiene un reembolso pendiente de {amount}. Reclámelo aquí hoy: {url}",
     "{brand}: you have a pending refund of {amount}. Claim it here today: {url}",
     Some(Se::Banking)),
    (St::Delivery, L::Spanish, AUTH_URG,
     "{brand}: su paquete {tracking} está retenido. Pague la tasa de aduana de {amount} aquí: {url}",
     "{brand}: your package {tracking} is held. Pay the customs fee of {amount} here: {url}",
     Some(Se::Delivery)),
    (St::Delivery, L::Spanish, AUTH_URG,
     "{brand}: no pudimos entregar su paquete hoy. Programe una nueva entrega en {url}",
     "{brand}: we could not deliver your package today. Schedule a new delivery at {url}",
     Some(Se::Delivery)),
    (St::Government, L::Spanish, AUTH_GREED_URG,
     "{brand}: usted tiene derecho a una devolución de {amount}. Solicítela antes del plazo en {url}",
     "{brand}: you are entitled to a refund of {amount}. Request it before the deadline at {url}",
     Some(Se::Government)),
    (St::Telecom, L::Spanish, AUTH_URG,
     "{brand}: su factura no ha sido pagada. Actualice su método de pago hoy en {url} para evitar la suspensión.",
     "{brand}: your bill has not been paid. Update your payment method today at {url} to avoid suspension.",
     Some(Se::Telecom)),
    (St::Telecom, L::Spanish, AUTH_GREED_URG,
     "{brand}: sus puntos de fidelidad por valor de {amount} caducan hoy. Canjéelos ahora aquí: {url}",
     "{brand}: your loyalty points worth {amount} expire today. Redeem them now here: {url}",
     Some(Se::Telecom)),
    (St::Others, L::Spanish, AUTH_URG,
     "{brand}: su suscripción ha sido suspendida por un problema de pago. Actualice sus datos aquí: {url}",
     "{brand}: your subscription has been suspended due to a payment problem. Update your details here: {url}",
     Some(Se::Tech)),
    (St::Spam, L::Spanish, GREED_HERD,
     "¡Usted ha sido seleccionado! Miles ya ganaron {amount}. Juegue hoy aquí: {url}",
     "You have been selected! Thousands already won {amount}. Play today here: {url}",
     None),
    (St::WrongNumber, L::Spanish, CONVO,
     "Hola, ¿eres {name}? Jenny me dio tu número para la clase de yoga de hoy.",
     "Hello, are you {name}? Jenny gave me your number for the yoga class this week.",
     None),
    (St::HeyMumDad, L::Spanish, MUMDAD,
     "Hola mamá, se me rompió el teléfono y este es mi número nuevo. ¿Puedes ayudarme hoy por favor? Es urgente, escríbeme x",
     "Hi mum, my phone broke and this is my new number. Can you help me today please? It is urgent, text me back x",
     None),
    // ================= Dutch =================
    (St::Banking, L::Dutch, AUTH_URG,
     "{brand}: uw rekening wordt vandaag geblokkeerd. Verifieer uw gegevens via {url} alstublieft.",
     "{brand}: your account will be blocked today. Please verify your details via {url}",
     Some(Se::Banking)),
    (St::Banking, L::Dutch, AUTH_URG,
     "{brand}: uw bankpas verloopt. Vraag vandaag een nieuwe pas aan via {url}",
     "{brand}: your bank card is expiring. Request a new card today via {url}",
     Some(Se::Banking)),
    (St::Delivery, L::Dutch, AUTH_URG,
     "{brand}: uw pakket {tracking} kon niet worden bezorgd. Klik hier om een nieuw moment te kiezen: {url}",
     "{brand}: your parcel {tracking} could not be delivered. Click here to choose a new time: {url}",
     Some(Se::Delivery)),
    (St::Government, L::Dutch, AUTH_URG,
     "{brand}: u heeft een openstaande schuld van {amount}. Betaal vandaag via {url} om beslaglegging te voorkomen.",
     "{brand}: you have an outstanding debt of {amount}. Pay today via {url} to prevent seizure.",
     Some(Se::Government)),
    (St::Telecom, L::Dutch, AUTH_URG,
     "{brand}: uw factuur is niet betaald. Werk uw betaalgegevens bij via {url}",
     "{brand}: your bill has not been paid. Update your payment details via {url}",
     Some(Se::Telecom)),
    (St::WrongNumber, L::Dutch, CONVO,
     "Hoi, ben jij {name}? Ik kreeg je nummer van Jenny over de yogales van vandaag.",
     "Hi, are you {name}? I got your number from Jenny about the yoga class this week.",
     None),
    (St::HeyMumDad, L::Dutch, MUMDAD,
     "Hoi mam, mijn telefoon is kapot, dit is mijn nieuwe nummer. Kun je me vandaag helpen? Het is dringend, stuur me een berichtje terug x",
     "Hi mum, my phone is broken, this is my new number. Can you help me today? It is urgent, text me back x",
     None),
    // ================= French =================
    (St::Banking, L::French, AUTH_URG,
     "{brand}: votre compte a été suspendu suite à une activité inhabituelle. Veuillez vérifier vos informations ici: {url}",
     "{brand}: your account has been suspended following unusual activity. Please verify your information here: {url}",
     Some(Se::Banking)),
    (St::Delivery, L::French, AUTH_URG,
     "{brand}: votre colis {tracking} est en attente. Des frais de douane de {amount} sont dus. Payez ici: {url}",
     "{brand}: your parcel {tracking} is pending. Customs fees of {amount} are due. Pay here: {url}",
     Some(Se::Delivery)),
    (St::Government, L::French, AUTH_GREED_URG,
     "{brand}: vous avez droit à un remboursement de {amount}. Faites votre demande dès aujourd'hui: {url}",
     "{brand}: you are entitled to a refund of {amount}. Make your claim today: {url}",
     Some(Se::Government)),
    (St::Government, L::French, AUTH_URG,
     "{brand}: amende impayée. Pour éviter une majoration, veuillez régulariser votre situation ici: {url}",
     "{brand}: unpaid fine. To avoid a surcharge, please regularize your situation here: {url}",
     Some(Se::Government)),
    (St::Telecom, L::French, AUTH_URG,
     "{brand}: votre dernière facture a été refusée. Mettez à jour votre moyen de paiement ici: {url}",
     "{brand}: your last bill was declined. Update your payment method here: {url}",
     Some(Se::Telecom)),
    (St::Telecom, L::French, AUTH_GREED,
     "{brand}: vos points fidélité expirent aujourd'hui! Échangez-les contre un cadeau ici: {url}",
     "{brand}: your loyalty points expire today! Exchange them for a gift here: {url}",
     Some(Se::Telecom)),
    // ================= German =================
    (St::Banking, L::German, AUTH_URG,
     "{brand}: Ihr Konto wurde gesperrt. Bitte bestätigen Sie Ihre Daten heute hier: {url}",
     "{brand}: your account has been locked. Please confirm your details here today: {url}",
     Some(Se::Banking)),
    (St::Delivery, L::German, AUTH_URG,
     "{brand}: Ihr Paket {tracking} wartet auf Zustellung. Bitte bestätigen Sie Ihre Adresse hier: {url}",
     "{brand}: your parcel {tracking} awaits delivery. Please confirm your address here: {url}",
     Some(Se::Delivery)),
    (St::Delivery, L::German, AUTH_URG,
     "{brand}: Zollgebühren von {amount} sind für Ihre Sendung fällig. Jetzt bezahlen und Rücksendung vermeiden: {url}",
     "{brand}: customs fees of {amount} are due for your shipment. Pay now and avoid return: {url}",
     Some(Se::Delivery)),
    (St::HeyMumDad, L::German, MUMDAD,
     "Hallo Mama, mein Handy ist kaputt und das ist meine neue Nummer. Kannst du mir bitte heute helfen? Es ist dringend, schreib mir zurück.",
     "Hello mum, my phone is broken and this is my new number. Can you please help me today? It is urgent, text me back.",
     None),
    // ================= Italian =================
    (St::Banking, L::Italian, AUTH_URG,
     "{brand}: il suo conto è stato bloccato per attività sospetta. Verifichi subito i suoi dati qui: {url}",
     "{brand}: your account has been blocked for suspicious activity. Verify your details immediately here: {url}",
     Some(Se::Banking)),
    (St::Banking, L::Italian, AUTH_URG,
     "{brand}: la sua carta è stata sospesa. Per riattivarla clicchi qui oggi: {url}",
     "{brand}: your card has been suspended. To reactivate it click here today: {url}",
     Some(Se::Banking)),
    (St::Delivery, L::Italian, AUTH_URG,
     "{brand}: il suo pacco {tracking} è in giacenza. Paghi la tassa di {amount} qui: {url}",
     "{brand}: your parcel {tracking} is in storage. Pay the fee of {amount} here: {url}",
     Some(Se::Delivery)),
    // ================= Indonesian =================
    (St::Others, L::Indonesian, &[Lu::NeedAndGreed, Lu::TimeUrgency],
     "Selamat! Anda terpilih untuk pekerjaan paruh waktu dengan gaji {amount} per hari. Segera daftar di sini: {url}",
     "Congratulations! You have been selected for a part-time job paying {amount} per day. Register here immediately: {url}",
     None),
    (St::Others, L::Indonesian, GREED_HERD,
     "Ribuan orang telah untung besar lewat investasi {brand}. Bergabunglah hari ini dan klaim bonus {amount}: {url}",
     "Thousands of people have already profited through {brand} investment. Join today and claim your {amount} bonus: {url}",
     Some(Se::Crypto)),
    (St::WrongNumber, L::Indonesian, CONVO,
     "Halo, apakah ini {name}? Saya dapat nomor Anda dari teman untuk urusan kemarin.",
     "Hello, is this {name}? I got your number from a friend about yesterday's matter.",
     None),
    (St::Banking, L::Indonesian, AUTH_URG,
     "{brand}: akun Anda telah diblokir sementara. Silakan verifikasi data Anda segera di sini: {url}",
     "{brand}: your account has been temporarily blocked. Please verify your details immediately here: {url}",
     Some(Se::Banking)),
    (St::Spam, L::Indonesian, GREED_HERD,
     "Promo spesial! Menangkan hadiah {amount} hari ini, sudah banyak pemenang. Main di sini: {url}",
     "Special promo! Win a prize of {amount} today, there are already many winners. Play here: {url}",
     None),
    // ================= Portuguese =================
    (St::Banking, L::Portuguese, AUTH_URG,
     "{brand}: sua conta foi bloqueada por segurança. Confirme seus dados hoje aqui: {url}",
     "{brand}: your account was blocked for security. Confirm your details here today: {url}",
     Some(Se::Banking)),
    (St::Banking, L::Portuguese, AUTH_GREED,
     "{brand}: você tem um estorno de {amount} disponível. Resgate aqui: {url}",
     "{brand}: you have a refund of {amount} available. Redeem it here: {url}",
     Some(Se::Banking)),
    (St::Government, L::Portuguese, AUTH_GREED_URG,
     "{brand}: você tem direito a um reembolso de {amount}. Solicite antes do prazo aqui: {url}",
     "{brand}: you are entitled to a refund of {amount}. Request it before the deadline here: {url}",
     Some(Se::Government)),
    (St::Delivery, L::Portuguese, AUTH_URG,
     "{brand}: seu pacote {tracking} está retido na alfândega. Pague a taxa de {amount} aqui hoje: {url}",
     "{brand}: your package {tracking} is held at customs. Pay the fee of {amount} here today: {url}",
     Some(Se::Delivery)),
    // ================= Japanese =================
    (St::Delivery, L::Japanese, AUTH_URG,
     "{brand}：お荷物のお届けにあがりましたが不在のため持ち帰りました。こちらからご確認ください {url}",
     "{brand}: we attempted to deliver your package but you were absent. Please confirm here {url}",
     Some(Se::Delivery)),
    (St::Others, L::Japanese, AUTH_URG,
     "{brand}：お支払い方法に問題があります。アカウントを確認してください {url}",
     "{brand}: there is a problem with your payment method. Please verify your account {url}",
     Some(Se::Tech)),
    (St::WrongNumber, L::Japanese, CONVO,
     "こんにちは、{name}さんですか？先日の件でご連絡しました。お返事ください。",
     "Hello, is this {name}? I am contacting you about the other day. Please reply.",
     None),
    // ================= Hindi =================
    (St::Banking, L::Hindi, AUTH_URG,
     "{brand}: आपका खाता आज बंद हो जाएगा। कृपया तुरंत अपना KYC यहाँ अपडेट करें: {url}",
     "{brand}: your account will be closed today. Please update your KYC here immediately: {url}",
     Some(Se::Banking)),
    (St::Banking, L::Hindi, AUTH_GREED,
     "{brand}: आपके खाते में {amount} का रिफंड है। कृपया यहाँ क्लिक करें: {url}",
     "{brand}: there is a refund of {amount} in your account. Please click here: {url}",
     Some(Se::Banking)),
    // ================= Tagalog =================
    (St::Banking, L::Tagalog, AUTH_URG,
     "{brand}: ang iyong account ay na-suspend. I-verify ang iyong detalye dito ngayon: {url}",
     "{brand}: your account has been suspended. Verify your details here now: {url}",
     Some(Se::Banking)),
    (St::Spam, L::Tagalog, GREED_HERD,
     "Congrats! Ikaw ay napili sa aming raffle, ang premyo ay {amount}. I-claim dito ngayon po: {url}",
     "Congrats! You were chosen in our raffle, the prize is {amount}. Claim it here now: {url}",
     None),
    // ================= Mandarin =================
    (St::WrongNumber, L::Mandarin, CONVO,
     "您好，请问是{name}吗？我是上次聚会认识的朋友，想和您聊聊。",
     "Hello, is this {name}? I am the friend from the last gathering, I would like to chat with you.",
     None),
    (St::Others, L::Mandarin, AUTH_URG,
     "{brand}：您的账户存在异常登录，请立即点击这里验证 {url}",
     "{brand}: your account has an abnormal login, please click here to verify immediately {url}",
     Some(Se::Tech)),
    // ================= Turkish =================
    (St::Banking, L::Turkish, AUTH_URG,
     "{brand}: hesabınız askıya alındı. Lütfen bilgilerinizi hemen buradan doğrulayın: {url}",
     "{brand}: your account has been suspended. Please verify your details here immediately: {url}",
     Some(Se::Banking)),
];

/// The template library: hand-written sources plus one lexicon-derived
/// banking template per tail language.
#[derive(Debug)]
pub struct TemplateLibrary {
    templates: Vec<Template>,
}

impl TemplateLibrary {
    /// The process-wide library.
    pub fn global() -> &'static TemplateLibrary {
        static LIB: OnceLock<TemplateLibrary> = OnceLock::new();
        LIB.get_or_init(|| {
            let mut templates = Vec::new();
            for &(scam, lang, lures, pattern, english, sector) in SOURCES {
                templates.push(Template {
                    id: templates.len(),
                    scam_type: scam,
                    language: lang,
                    lures: LureSet::from_slice(lures),
                    pattern: pattern.to_string(),
                    english: english.to_string(),
                    brand_sector: sector,
                });
            }
            // Tail languages: one lexicon-derived banking template each.
            let covered: std::collections::HashSet<Language> =
                templates.iter().map(|t| t.language).collect();
            for &lang in Language::ALL {
                if covered.contains(&lang) {
                    continue;
                }
                let lex = crate::lexicon::lexicon(lang);
                let pattern = format!("{{brand}}: {} {{url}}", lex.join(" "));
                templates.push(Template {
                    id: templates.len(),
                    scam_type: ScamType::Banking,
                    language: lang,
                    lures: LureSet::from_slice(AUTH_URG),
                    pattern,
                    english: "{brand}: your account has been suspended, please click here immediately to verify your bank details today: {url}".to_string(),
                    brand_sector: Some(Sector::Banking),
                });
            }
            TemplateLibrary { templates }
        })
    }

    /// All templates.
    pub fn all(&self) -> &[Template] {
        &self.templates
    }

    /// Templates of a scam type and language.
    pub fn for_scam_lang(&self, scam: ScamType, lang: Language) -> Vec<&Template> {
        self.templates
            .iter()
            .filter(|t| t.scam_type == scam && t.language == lang)
            .collect()
    }

    /// Languages with at least one template.
    pub fn languages(&self) -> Vec<Language> {
        let mut ls: Vec<Language> = self.templates.iter().map(|t| t.language).collect();
        ls.sort();
        ls.dedup();
        ls
    }

    /// Find the template matching a rendered text, extracting its fillers.
    /// Tries same-language templates first when `lang_hint` is given.
    pub fn match_text(
        &self,
        text: &str,
        lang_hint: Option<Language>,
    ) -> Option<(&Template, Fills)> {
        if let Some(lang) = lang_hint {
            for t in self.templates.iter().filter(|t| t.language == lang) {
                if let Some(f) = match_pattern(&t.pattern, text) {
                    return Some((t, f));
                }
            }
        }
        for t in &self.templates {
            if Some(t.language) == lang_hint {
                continue;
            }
            if let Some(f) = match_pattern(&t.pattern, text) {
                return Some((t, f));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fills() -> Fills {
        Fills {
            brand: Some("SBI".into()),
            url: Some("https://bit.ly/x9".into()),
            name: Some("Alex".into()),
            amount: Some("₹4,500".into()),
            tracking: Some("RM123456789GB".into()),
            code: Some("284913".into()),
            number: Some("+447900000001".into()),
        }
    }

    #[test]
    fn library_covers_all_languages() {
        let lib = TemplateLibrary::global();
        assert_eq!(lib.languages().len(), Language::ALL.len());
        assert!(lib.all().len() > 100, "{} templates", lib.all().len());
    }

    #[test]
    fn every_scam_type_has_english_templates() {
        let lib = TemplateLibrary::global();
        for &scam in ScamType::ALL {
            assert!(
                !lib.for_scam_lang(scam, Language::English).is_empty(),
                "{scam:?} missing English templates"
            );
        }
    }

    #[test]
    fn pattern_and_english_share_placeholders() {
        let lib = TemplateLibrary::global();
        for t in lib.all() {
            let mut a = placeholders_of(&t.pattern);
            let mut b = placeholders_of(&t.english);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "template {} placeholder mismatch", t.id);
        }
    }

    #[test]
    fn render_and_rematch_round_trips() {
        let lib = TemplateLibrary::global();
        let f = fills();
        for t in lib.all() {
            let rendered = t.render(&f);
            let (matched, extracted) = lib
                .match_text(&rendered, Some(t.language))
                .unwrap_or_else(|| panic!("template {} did not rematch: {rendered}", t.id));
            // The matched template must reproduce the same English rendering
            // (several templates may be textually ambiguous, but fills must
            // transfer).
            for ph in t.placeholders() {
                assert_eq!(
                    extracted.get(ph),
                    f.get(ph),
                    "template {} (matched {}) filler {ph} mismatch",
                    t.id,
                    matched.id
                );
            }
        }
    }

    #[test]
    fn render_fills_placeholders() {
        let lib = TemplateLibrary::global();
        let t = &lib.all()[0];
        let rendered = t.render(&fills());
        assert!(rendered.contains("SBI"));
        assert!(rendered.contains("https://bit.ly/x9"));
        assert!(!rendered.contains('{'));
    }

    #[test]
    fn match_rejects_wrong_text() {
        assert_eq!(
            match_pattern("{brand}: pay at {url}", "completely unrelated text"),
            None
        );
        assert_eq!(
            match_pattern("literal only", "literal only"),
            Some(Fills::default())
        );
        assert_eq!(
            match_pattern("literal only", "literal only plus junk"),
            None
        );
    }

    #[test]
    fn match_extracts_fillers() {
        let f = match_pattern(
            "{brand}: your parcel {tracking} is held. Pay at {url}",
            "Evri: your parcel RM1234 is held. Pay at https://cutt.ly/ab",
        )
        .unwrap();
        assert_eq!(f.brand.as_deref(), Some("Evri"));
        assert_eq!(f.tracking.as_deref(), Some("RM1234"));
        assert_eq!(f.url.as_deref(), Some("https://cutt.ly/ab"));
    }

    #[test]
    fn languages_of_templates_self_identify() {
        // Rendered templates must be identified as their own language —
        // otherwise Table 11 cannot be reproduced.
        let lib = TemplateLibrary::global();
        let f = fills();
        let mut failures = Vec::new();
        for t in lib.all() {
            let rendered = t.render(&f);
            let detected = crate::langid::identify_language(&rendered);
            if detected != Some(t.language) {
                failures.push((t.id, t.language, detected, rendered));
            }
        }
        assert!(
            failures.len() <= lib.all().len() / 20,
            "too many language-ID failures: {failures:#?}"
        );
    }
}
