//! The impersonated-brand catalog (Table 12).
//!
//! Brands carry the sector (which maps to the scam category the brand is
//! typically impersonated for), the home market (driving which recipient
//! countries see the brand) and alias strings (what the smish actually
//! writes, including abbreviations like "SBI").

use crate::ner::AliasIndex;
use smishing_types::{Country, Sector};
use std::sync::OnceLock;

/// One brand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Brand {
    /// Canonical name, as the paper's Table 12 prints it.
    pub name: &'static str,
    /// Business sector.
    pub sector: Sector,
    /// Primary market(s).
    pub countries: &'static [Country],
    /// Surface forms the message may use (lowercase, pre-normalization).
    pub aliases: &'static [&'static str],
    /// Whether the brand is global (targets any country).
    pub global: bool,
}

use Country as C;
use Sector as S;

const fn b(
    name: &'static str,
    sector: Sector,
    countries: &'static [Country],
    aliases: &'static [&'static str],
    global: bool,
) -> Brand {
    Brand {
        name,
        sector,
        countries,
        aliases,
        global,
    }
}

/// The catalog. Order within a sector roughly follows Table 12 prominence.
pub const BRANDS: &[Brand] = &[
    // ---- Banking: India (SBI tops Table 12) ----
    b(
        "State Bank of India",
        S::Banking,
        &[C::India],
        &["sbi", "state bank", "sbi bank", "sbi yono"],
        false,
    ),
    b(
        "PayTM",
        S::Banking,
        &[C::India],
        &["paytm", "paytm kyc"],
        false,
    ),
    b(
        "HDFC Bank",
        S::Banking,
        &[C::India],
        &["hdfc", "hdfc bank", "hdfc netbanking"],
        false,
    ),
    b(
        "ICICI Bank",
        S::Banking,
        &[C::India],
        &["icici", "icici bank"],
        false,
    ),
    b(
        "Axis Bank",
        S::Banking,
        &[C::India],
        &["axis bank", "axis"],
        false,
    ),
    b(
        "Punjab National Bank",
        S::Banking,
        &[C::India],
        &["pnb", "punjab national bank"],
        false,
    ),
    // ---- Banking: Europe ----
    b(
        "Santander",
        S::Banking,
        &[C::Spain, C::UnitedKingdom, C::Brazil, C::Portugal],
        &["santander"],
        false,
    ),
    b(
        "Rabobank",
        S::Banking,
        &[C::Netherlands],
        &["rabobank", "rabo"],
        false,
    ),
    b("BBVA", S::Banking, &[C::Spain, C::Mexico], &["bbva"], false),
    b(
        "CaixaBank",
        S::Banking,
        &[C::Spain, C::Portugal],
        &["caixabank", "caixa", "la caixa"],
        false,
    ),
    b(
        "ING",
        S::Banking,
        &[C::Netherlands, C::Belgium, C::Germany],
        &["ing", "ing bank"],
        false,
    ),
    b(
        "ABN AMRO",
        S::Banking,
        &[C::Netherlands],
        &["abn amro", "abn"],
        false,
    ),
    b(
        "Barclays",
        S::Banking,
        &[C::UnitedKingdom],
        &["barclays"],
        false,
    ),
    b(
        "HSBC",
        S::Banking,
        &[C::UnitedKingdom, C::HongKong],
        &["hsbc"],
        false,
    ),
    b(
        "Lloyds Bank",
        S::Banking,
        &[C::UnitedKingdom],
        &["lloyds", "lloyds bank"],
        false,
    ),
    b(
        "NatWest",
        S::Banking,
        &[C::UnitedKingdom],
        &["natwest"],
        false,
    ),
    b("Monzo", S::Banking, &[C::UnitedKingdom], &["monzo"], false),
    b(
        "Revolut",
        S::Banking,
        &[C::UnitedKingdom, C::Ireland],
        &["revolut"],
        false,
    ),
    b(
        "BNP Paribas",
        S::Banking,
        &[C::France],
        &["bnp", "bnp paribas"],
        false,
    ),
    b(
        "Credit Agricole",
        S::Banking,
        &[C::France],
        &["credit agricole", "crédit agricole"],
        false,
    ),
    b(
        "Societe Generale",
        S::Banking,
        &[C::France],
        &["societe generale", "société générale"],
        false,
    ),
    b(
        "Deutsche Bank",
        S::Banking,
        &[C::Germany],
        &["deutsche bank"],
        false,
    ),
    b(
        "Commerzbank",
        S::Banking,
        &[C::Germany],
        &["commerzbank"],
        false,
    ),
    b(
        "Sparkasse",
        S::Banking,
        &[C::Germany],
        &["sparkasse"],
        false,
    ),
    b("UniCredit", S::Banking, &[C::Italy], &["unicredit"], false),
    b(
        "Intesa Sanpaolo",
        S::Banking,
        &[C::Italy],
        &["intesa", "intesa sanpaolo"],
        false,
    ),
    b("KBC", S::Banking, &[C::Belgium], &["kbc"], false),
    b("Belfius", S::Banking, &[C::Belgium], &["belfius"], false),
    // ---- Banking: Americas / APAC ----
    b(
        "Chase",
        S::Banking,
        &[C::UnitedStates],
        &["chase", "jpmorgan chase"],
        false,
    ),
    b(
        "Bank of America",
        S::Banking,
        &[C::UnitedStates],
        &["bank of america", "bofa"],
        false,
    ),
    b(
        "Wells Fargo",
        S::Banking,
        &[C::UnitedStates],
        &["wells fargo"],
        false,
    ),
    b(
        "Citibank",
        S::Banking,
        &[C::UnitedStates],
        &["citi", "citibank"],
        false,
    ),
    b("Zelle", S::Banking, &[C::UnitedStates], &["zelle"], false),
    b(
        "Commonwealth Bank",
        S::Banking,
        &[C::Australia],
        &["commbank", "commonwealth bank"],
        false,
    ),
    b(
        "ANZ",
        S::Banking,
        &[C::Australia, C::NewZealand],
        &["anz"],
        false,
    ),
    b("Westpac", S::Banking, &[C::Australia], &["westpac"], false),
    b("Maybank", S::Banking, &[C::Malaysia], &["maybank"], false),
    b(
        "Bank Mandiri",
        S::Banking,
        &[C::Indonesia],
        &["mandiri", "bank mandiri"],
        false,
    ),
    b(
        "BCA",
        S::Banking,
        &[C::Indonesia],
        &["bca", "bank central asia"],
        false,
    ),
    b("PayPal", S::Banking, &[C::UnitedStates], &["paypal"], true),
    b(
        "Royal Bank of Canada",
        S::Banking,
        &[C::Canada],
        &["rbc", "royal bank"],
        false,
    ),
    b(
        "TD Bank",
        S::Banking,
        &[C::Canada],
        &["td bank", "td canada"],
        false,
    ),
    b("MUFG", S::Banking, &[C::Japan], &["mufg", "三菱ufj"], false),
    b(
        "Ziraat Bankasi",
        S::Banking,
        &[C::Turkey],
        &["ziraat", "ziraat bankasi"],
        false,
    ),
    b(
        "BDO Unibank",
        S::Banking,
        &[C::Philippines],
        &["bdo", "bdo unibank"],
        false,
    ),
    b(
        "M-PESA",
        S::Banking,
        &[C::Kenya],
        &["m-pesa", "mpesa"],
        false,
    ),
    b(
        "GTBank",
        S::Banking,
        &[C::Nigeria],
        &["gtbank", "gtb"],
        false,
    ),
    b(
        "Ceska Sporitelna",
        S::Banking,
        &[C::Czechia],
        &["ceska sporitelna", "česká spořitelna"],
        false,
    ),
    b(
        "Banca Transilvania",
        S::Banking,
        &[C::Romania],
        &["banca transilvania", "bt pay"],
        false,
    ),
    b(
        "OTP Bank",
        S::Banking,
        &[C::Hungary],
        &["otp", "otp bank"],
        false,
    ),
    b(
        "PrivatBank",
        S::Banking,
        &[C::Ukraine],
        &["privatbank", "privat24"],
        false,
    ),
    b("QNB", S::Banking, &[C::Qatar], &["qnb"], false),
    b(
        "Bank of Ceylon",
        S::Banking,
        &[C::SriLanka],
        &["bank of ceylon", "boc"],
        false,
    ),
    b(
        "GCB Bank",
        S::Banking,
        &[C::Ghana],
        &["gcb", "gcb bank"],
        false,
    ),
    b("DBS", S::Banking, &[C::Singapore], &["dbs", "posb"], false),
    b("BNZ", S::Banking, &[C::NewZealand], &["bnz"], false),
    b(
        "FNB",
        S::Banking,
        &[C::SouthAfrica],
        &["fnb", "first national bank"],
        false,
    ),
    b(
        "Kiwibank",
        S::Banking,
        &[C::NewZealand],
        &["kiwibank"],
        false,
    ),
    // ---- Delivery ----
    b(
        "USPS",
        S::Delivery,
        &[C::UnitedStates],
        &["usps", "us postal"],
        false,
    ),
    b("Correos", S::Delivery, &[C::Spain], &["correos"], false),
    b(
        "Royal Mail",
        S::Delivery,
        &[C::UnitedKingdom],
        &["royal mail", "royalmail"],
        false,
    ),
    b(
        "Evri",
        S::Delivery,
        &[C::UnitedKingdom],
        &["evri", "hermes"],
        false,
    ),
    b("DHL", S::Delivery, &[C::Germany], &["dhl"], true),
    b(
        "DPD",
        S::Delivery,
        &[C::UnitedKingdom, C::Germany, C::France],
        &["dpd"],
        false,
    ),
    b(
        "FedEx",
        S::Delivery,
        &[C::UnitedStates, C::India],
        &["fedex"],
        true,
    ),
    b("UPS", S::Delivery, &[C::UnitedStates], &["ups"], true),
    b("PostNL", S::Delivery, &[C::Netherlands], &["postnl"], false),
    b("bpost", S::Delivery, &[C::Belgium], &["bpost"], false),
    b(
        "La Poste",
        S::Delivery,
        &[C::France],
        &["la poste", "laposte", "colissimo"],
        false,
    ),
    b(
        "Chronopost",
        S::Delivery,
        &[C::France],
        &["chronopost"],
        false,
    ),
    b(
        "Australia Post",
        S::Delivery,
        &[C::Australia],
        &["auspost", "australia post"],
        false,
    ),
    b(
        "Canada Post",
        S::Delivery,
        &[C::Canada],
        &["canada post"],
        false,
    ),
    b(
        "Japan Post",
        S::Delivery,
        &[C::Japan],
        &["japan post", "日本郵便"],
        false,
    ),
    b(
        "Ceska Posta",
        S::Delivery,
        &[C::Czechia],
        &["ceska posta", "česká pošta"],
        false,
    ),
    b(
        "PostNord",
        S::Delivery,
        &[C::Sweden, C::Denmark],
        &["postnord"],
        false,
    ),
    b(
        "India Post",
        S::Delivery,
        &[C::India],
        &["india post"],
        false,
    ),
    // ---- Government ----
    b(
        "IRS",
        S::Government,
        &[C::UnitedStates],
        &["irs", "internal revenue service"],
        false,
    ),
    b(
        "HMRC",
        S::Government,
        &[C::UnitedKingdom],
        &["hmrc", "hm revenue"],
        false,
    ),
    b("DVLA", S::Government, &[C::UnitedKingdom], &["dvla"], false),
    b(
        "GOV.UK",
        S::Government,
        &[C::UnitedKingdom],
        &["gov.uk", "govuk"],
        false,
    ),
    b(
        "E-ZPass",
        S::Government,
        &[C::UnitedStates],
        &["e-zpass", "ezpass", "ez pass"],
        false,
    ),
    b(
        "Agencia Tributaria",
        S::Government,
        &[C::Spain],
        &["agencia tributaria", "aeat"],
        false,
    ),
    b(
        "Belastingdienst",
        S::Government,
        &[C::Netherlands],
        &["belastingdienst"],
        false,
    ),
    b(
        "DGFiP",
        S::Government,
        &[C::France],
        &["impots.gouv", "dgfip", "impots"],
        false,
    ),
    b(
        "CRA",
        S::Government,
        &[C::Canada],
        &["cra", "canada revenue"],
        false,
    ),
    b(
        "ATO",
        S::Government,
        &[C::Australia],
        &["ato", "australian taxation"],
        false,
    ),
    b("myGov", S::Government, &[C::Australia], &["mygov"], false),
    b(
        "Income Tax Dept",
        S::Government,
        &[C::India],
        &["income tax", "incometax"],
        false,
    ),
    // ---- Telecom ----
    b(
        "Vodafone",
        S::Telecom,
        &[C::UnitedKingdom, C::India, C::Spain, C::Germany],
        &["vodafone", "vodafone idea"],
        false,
    ),
    b(
        "O2",
        S::Telecom,
        &[C::UnitedKingdom, C::Germany],
        &["o2"],
        false,
    ),
    b("EE", S::Telecom, &[C::UnitedKingdom], &["ee"], false),
    b(
        "Three",
        S::Telecom,
        &[C::UnitedKingdom],
        &["three", "three uk"],
        false,
    ),
    b(
        "T-Mobile",
        S::Telecom,
        &[C::UnitedStates, C::Netherlands],
        &["t-mobile", "tmobile"],
        false,
    ),
    b(
        "Verizon",
        S::Telecom,
        &[C::UnitedStates],
        &["verizon"],
        false,
    ),
    b(
        "AT&T",
        S::Telecom,
        &[C::UnitedStates],
        &["at&t", "att"],
        false,
    ),
    b(
        "Orange",
        S::Telecom,
        &[C::France, C::Spain],
        &["orange"],
        false,
    ),
    b("SFR", S::Telecom, &[C::France], &["sfr"], false),
    b("KPN", S::Telecom, &[C::Netherlands], &["kpn"], false),
    b("Telstra", S::Telecom, &[C::Australia], &["telstra"], false),
    b("Airtel", S::Telecom, &[C::India], &["airtel"], false),
    b(
        "Jio",
        S::Telecom,
        &[C::India],
        &["jio", "reliance jio"],
        false,
    ),
    b("Movistar", S::Telecom, &[C::Spain], &["movistar"], false),
    b(
        "China Telecom",
        S::Telecom,
        &[C::China],
        &["china telecom", "china-telecom"],
        false,
    ),
    // ---- Tech / streaming / marketplaces (Table 12 "Others") ----
    b(
        "Amazon",
        S::Tech,
        &[C::UnitedStates, C::UnitedKingdom, C::Japan],
        &["amazon", "amzn"],
        true,
    ),
    b(
        "Netflix",
        S::Tech,
        &[C::UnitedStates],
        &["netflix", "nflx"],
        true,
    ),
    b(
        "Apple",
        S::Tech,
        &[C::UnitedStates],
        &["apple", "icloud", "apple id"],
        true,
    ),
    b(
        "Google",
        S::Tech,
        &[C::UnitedStates],
        &["google", "gmail"],
        true,
    ),
    b(
        "Facebook",
        S::Tech,
        &[C::UnitedStates],
        &["facebook", "fb"],
        true,
    ),
    b(
        "Instagram",
        S::Tech,
        &[C::UnitedStates],
        &["instagram"],
        true,
    ),
    b("WhatsApp", S::Tech, &[C::UnitedStates], &["whatsapp"], true),
    b("Telegram", S::Tech, &[C::UnitedStates], &["telegram"], true),
    b(
        "Microsoft",
        S::Tech,
        &[C::UnitedStates],
        &["microsoft", "outlook"],
        true,
    ),
    // ---- Crypto ----
    b("Binance", S::Crypto, &[C::UnitedStates], &["binance"], true),
    b(
        "Coinbase",
        S::Crypto,
        &[C::UnitedStates],
        &["coinbase"],
        true,
    ),
    b(
        "Ledger",
        S::Crypto,
        &[C::France],
        &["ledger", "ledger wallet"],
        true,
    ),
    b(
        "MetaMask",
        S::Crypto,
        &[C::UnitedStates],
        &["metamask"],
        true,
    ),
    b(
        "Trust Wallet",
        S::Crypto,
        &[C::UnitedStates],
        &["trust wallet"],
        true,
    ),
];

/// Catalog queries.
#[derive(Debug)]
pub struct BrandCatalog {
    /// The normalized aliases and their lookups (see [`crate::ner`]).
    alias_index: AliasIndex,
}

impl BrandCatalog {
    /// The process-wide catalog.
    pub fn global() -> &'static BrandCatalog {
        static CAT: OnceLock<BrandCatalog> = OnceLock::new();
        CAT.get_or_init(|| BrandCatalog {
            alias_index: AliasIndex::new(BRANDS),
        })
    }

    /// All brands.
    pub fn brands(&self) -> &'static [Brand] {
        BRANDS
    }

    /// Look up a brand by canonical name.
    pub fn by_name(&self, name: &str) -> Option<&'static Brand> {
        BRANDS.iter().find(|b| b.name.eq_ignore_ascii_case(name))
    }

    /// The normalized alias index brand extraction answers from.
    pub(crate) fn alias_index(&self) -> &AliasIndex {
        &self.alias_index
    }

    /// Brands of a sector.
    pub fn of_sector(&self, sector: Sector) -> Vec<&'static Brand> {
        BRANDS.iter().filter(|b| b.sector == sector).collect()
    }

    /// Brands plausible for a recipient country: home-market brands plus
    /// globals.
    pub fn for_country(&self, country: Country) -> Vec<&'static Brand> {
        BRANDS
            .iter()
            .filter(|b| b.global || b.countries.contains(&country))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_large() {
        assert!(BRANDS.len() >= 80, "{} brands", BRANDS.len());
    }

    #[test]
    fn table12_brands_present() {
        let cat = BrandCatalog::global();
        for name in [
            "State Bank of India",
            "PayTM",
            "HDFC Bank",
            "Santander",
            "Amazon",
            "IRS",
            "Rabobank",
            "BBVA",
            "Netflix",
            "CaixaBank",
        ] {
            assert!(cat.by_name(name).is_some(), "{name}");
        }
    }

    #[test]
    fn sector_queries() {
        let cat = BrandCatalog::global();
        let banks = cat.of_sector(Sector::Banking);
        assert!(banks.len() >= 30, "{} banks", banks.len());
        let delivery = cat.of_sector(Sector::Delivery);
        assert!(delivery.len() >= 15, "{}", delivery.len());
    }

    #[test]
    fn country_filter_includes_globals() {
        let cat = BrandCatalog::global();
        let nl = cat.for_country(Country::Netherlands);
        let names: Vec<_> = nl.iter().map(|b| b.name).collect();
        assert!(names.contains(&"Rabobank"));
        assert!(names.contains(&"PostNL"));
        assert!(names.contains(&"Netflix"), "global brands everywhere");
        assert!(!names.contains(&"State Bank of India"));
    }

    #[test]
    fn unique_brand_names() {
        let mut names: Vec<_> = BRANDS.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), BRANDS.len());
    }

    #[test]
    fn every_brand_has_aliases_and_countries() {
        for b in BRANDS {
            assert!(!b.aliases.is_empty(), "{}", b.name);
            assert!(!b.countries.is_empty(), "{}", b.name);
        }
    }
}
